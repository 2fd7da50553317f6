package main

// The observability subcommands:
//
//	mocckpt -dir <path> top            # one registry snapshot after a
//	                                   # read-replay pass over the store
//	mocckpt -dir <path> -watch top     # live view: per-tier counter
//	                                   # rates sampled every -interval
//	                                   # while a replay loop drives load
//	mocckpt trace -o trace.json        # persist/restore probe under the
//	                                   # span tracer; exports a Chrome
//	                                   # trace-event timeline (Perfetto)
//
// top enables the unified metrics layer (internal/obs), rebuilds the
// stats storage stack — the directory behind the object-store cost
// model behind the SIEVE chunk cache — and replays reads through it so
// every tier's gauges have something to report. One-shot mode prints
// the full name-sorted registry snapshot; -watch samples the registry
// -ticks times, printing the delta rate of every counter-like metric
// that moved between samples.

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"moc"
	"moc/internal/obs"
	"moc/internal/simtime"
	"moc/internal/storage"
	"moc/internal/storage/cache"
	"moc/internal/storage/cas"
	"moc/internal/storage/remote"
)

// runTop drives a read replay through an obs-instrumented stack over
// the store and prints the metrics registry — once, or as a rate view
// every interval for ticks samples under watch.
func runTop(fsStore storage.PersistStore, watch bool, interval time.Duration, ticks int, cacheMB int, latencyMS, uploadMBps, downloadMBps float64) error {
	obs.Enable(obs.DefaultRingSize)
	defer obs.Disable()
	rs, err := remote.New(remote.Config{
		Inner:          fsStore,
		LatencySeconds: latencyMS / 1000,
		UploadBps:      uploadMBps * (1 << 20),
		DownloadBps:    downloadMBps * (1 << 20),
	})
	if err != nil {
		return err
	}
	cs, err := cache.New(rs, int64(cacheMB)<<20)
	if err != nil {
		return err
	}
	store, err := cas.Open(cs, cas.Options{})
	if err != nil {
		return err
	}
	manifests := store.Manifests()
	if len(manifests) == 0 {
		return fmt.Errorf("top: no checkpoints in the store")
	}
	replay := func() error {
		for _, m := range manifests {
			for _, e := range m.Modules {
				if _, err := store.ReadModule(m.Round, e.Module); err != nil {
					return fmt.Errorf("top replay %s@%06d: %w", e.Module, m.Round, err)
				}
			}
		}
		return nil
	}

	if !watch {
		if err := replay(); err != nil {
			return err
		}
		printSnapshot(obs.Metrics().Snapshot())
		return nil
	}

	// Watch mode: a background replay loop drives load while the
	// foreground samples the registry and prints counter rates.
	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := replay(); err != nil {
				done <- err
				return
			}
		}
	}()
	prev := pointValues(obs.Metrics().Snapshot())
	prevAt := simtime.WallNow()
	var loopErr error
	for i := 0; i < ticks; i++ {
		simtime.SleepWall(interval)
		select {
		case loopErr = <-done:
		default:
		}
		if loopErr != nil {
			break
		}
		cur := pointValues(obs.Metrics().Snapshot())
		at := simtime.WallNow()
		printRates(i+1, prev, cur, at.Sub(prevAt).Seconds())
		prev, prevAt = cur, at
	}
	close(stop)
	if loopErr == nil {
		if err := <-done; err != nil {
			loopErr = err
		}
	}
	return loopErr
}

// printSnapshot renders the full registry, histograms flattened to
// count/sum/quantiles.
func printSnapshot(points []obs.Point) {
	fmt.Printf("%-42s %-10s %s\n", "metric", "kind", "value")
	for _, p := range points {
		if p.Hist == nil {
			fmt.Printf("%-42s %-10s %s\n", p.Name, p.Kind, fmtMetric(p.Value))
			continue
		}
		fmt.Printf("%-42s %-10s count=%d sum=%.4fs", p.Name, p.Kind, p.Hist.Count, p.Hist.Sum)
		if p.Hist.Count > 0 {
			fmt.Printf(" p50=%.2fms p95=%.2fms p99=%.2fms",
				p.Hist.Quantile(0.50)*1000, p.Hist.Quantile(0.95)*1000, p.Hist.Quantile(0.99)*1000)
		}
		fmt.Println()
	}
}

// pointValues flattens a snapshot into name → value (histograms report
// their observation count, so rates mean observations/s).
func pointValues(points []obs.Point) map[string]float64 {
	out := make(map[string]float64, len(points))
	for _, p := range points {
		if p.Hist != nil {
			out[p.Name] = float64(p.Hist.Count)
		} else {
			out[p.Name] = p.Value
		}
	}
	return out
}

// printRates prints one watch sample: every metric that moved since the
// previous sample, grouped by tier (the name's first dotted segment),
// with its delta rate per second.
func printRates(tick int, prev, cur map[string]float64, elapsed float64) {
	if elapsed <= 0 {
		return
	}
	names := make([]string, 0, len(cur))
	for name := range cur {
		if cur[name] != prev[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("--- sample %d (%.1fs) ---\n", tick, elapsed)
	if len(names) == 0 {
		fmt.Println("(no movement)")
		return
	}
	lastTier := ""
	for _, name := range names {
		tier := name
		if i := strings.IndexByte(name, '.'); i > 0 {
			tier = name[:i]
		}
		if tier != lastTier {
			fmt.Printf("%s:\n", tier)
			lastTier = tier
		}
		fmt.Printf("  %-40s %14s %12s/s\n",
			name, fmtMetric(cur[name]), fmtMetric((cur[name]-prev[name])/elapsed))
	}
}

// fmtMetric renders a value compactly: integers without decimals,
// everything else with four significant decimals.
func fmtMetric(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4f", v)
}

// runTrace is the `mocckpt trace` entry: the persist/restore probe
// under span tracing (moc.RunTraceProbe), with its own flag set since
// it needs no checkpoint directory.
func runTrace(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	rounds := fs.Int("rounds", 4, "persist+restore cycles")
	modules := fs.Int("modules", 8, "modules per round")
	moduleKB := fs.Int("module-kb", 64, "payload KiB per module")
	faultStart := fs.Int("fault-start", 1, "first round of the remote degradation window (-1 disables)")
	faultEnd := fs.Int("fault-end", 2, "first round past the degradation window")
	out := fs.String("o", "trace.json", "Chrome trace-event output path")
	spanOut := fs.String("spans", "", "optional JSONL span dump path")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rep, err := moc.RunTraceProbe(moc.TraceProbeConfig{
		Rounds:      *rounds,
		Modules:     *modules,
		ModuleBytes: *moduleKB << 10,
		FaultStart:  *faultStart,
		FaultEnd:    *faultEnd,
		TracePath:   *out,
		SpanPath:    *spanOut,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mocckpt trace: %v\n", err)
		return 1
	}
	fmt.Printf("trace probe: %d rounds, %d spans, %d instants (%d fault-window annotations)\n",
		rep.Rounds, rep.Spans, rep.Instants, rep.FaultWindows)
	fmt.Printf("wall %.4fs, span-covered %.4fs, coverage %.1f%%\n",
		rep.WallSeconds, rep.SpanSeconds, rep.Coverage*100)
	fmt.Printf("wrote %s", *out)
	if *spanOut != "" {
		fmt.Printf(" and %s", *spanOut)
	}
	fmt.Println(" — load in ui.perfetto.dev or chrome://tracing")
	return 0
}
