// Command mocckpt inspects, verifies, and garbage-collects MoC
// checkpoint directories (the content-addressed store layout written by
// moc.NewFSStore + System):
//
//	mocckpt -dir /path/to/ckpts list     # rounds, modules, volumes
//	mocckpt -dir /path/to/ckpts inspect  # chunk-level detail, dedup stats,
//	                                     # chunking mode + chunk-size histogram
//	mocckpt -dir /path/to/ckpts verify   # read back + refcount audit
//	mocckpt -dir /path/to/ckpts gc       # refcount GC of superseded state
//	mocckpt -dir /path/to/ckpts stats    # storage-stack replay: dedup,
//	                                     # cache hit rate, remote op costs
//	mocckpt -dir /path/to/ckpts restore  # many-reader restore probe:
//	                                     # per-tier hit ratios, p50/p99
//	                                     # time-to-restored-model
//	mocckpt -dir /path/to/ckpts jobs     # fleet job registry, per-job
//	                                     # volumes, cross-job dedup ratio
//	mocckpt vet [packages]               # project-invariant static
//	                                     # analysis (the mocvet registry
//	                                     # run in-process; see
//	                                     # internal/analysis)
//	mocckpt chaos -preempt 100:30:3 ...  # validate a timed fault scenario
//	                                     # and print its replay timeline
//	                                     # (see chaos.go)
//	mocckpt -dir /path/to/ckpts top      # metrics-registry snapshot after
//	                                     # a read replay; -watch samples
//	                                     # per-tier counter rates live
//	mocckpt trace -o trace.json          # persist/restore probe under the
//	                                     # span tracer; exports a Chrome
//	                                     # trace-event timeline (see top.go)
//	mocckpt -dir /path/to/ckpts -shards 4 shards
//	                                     # per-shard distribution, balance
//	                                     # factor, misplaced keys
//
// Sharded stores (moc.NewShardedStore over FSStores) live as shard-000,
// shard-001, ... subdirectories of one root. -shards N opens the same
// consistent-hash router over them, so every subcommand sees the
// combined keyspace exactly as the writing process did; the shards
// subcommand then reports each shard's slice of it — chunk and byte
// counts, the balance factor (max/mean bytes), and any keys sitting on
// a shard the ring no longer routes them to (an interrupted rebalance).
//
// Multi-job (fleet) stores hold several writers' manifests in one chunk
// namespace: list and stats aggregate them into one dedup line and add
// a per-writer breakdown; -writer restricts list/inspect/stats to one
// writer's manifests; jobs reads the fleet registry (lineage, lease
// epochs) and reports each job's logical/chunk volumes plus the
// cross-job dedup ratio — what sharing one store saves over per-job
// stores.
//
// "compact" is accepted as an alias of "gc". inspect and stats report
// the manifests' chunking mode(s) ("fixed" or "cdc" content-defined
// boundaries) and a power-of-two histogram of unique chunk sizes —
// fixed-size stores show one spike at the chunk size (plus blob tails),
// CDC stores a spread between the min/max bounds. stats replays a full
// recovery twice through the simulated storage stack — the directory
// behind an object-store cost model behind a SIEVE chunk cache — and
// prints the dedup ratio, the cold/warm cache hit rates, and the remote
// op/byte/retry counters the replay cost. -cache-mb, -latency-ms,
// -upload-mbps and -download-mbps shape the stack. stats finishes with
// a persist probe: the newest round is rewritten into a fresh in-memory
// store twice, printing the pipeline's cold and unchanged-round MB/s
// and its stage counters (chunks hashed / written / deduped, modules
// skipped by the unchanged-module fast path).
//
// restore is the read-serving probe: -readers reader nodes — each with
// a private L1 cache over one shared warm L2 (-l1-mb / -cache-mb) over
// the directory behind the same object-store cost model — concurrently
// restore the newest round -restores times each. It prints each tier's
// hit ratio and coalescing counters, the backend's cold/repeat get
// split, and the p50/p99 time-to-restored-model across all restores.
// The remote model really sleeps its simulated cost here (SleepScale 1)
// so the percentiles reflect the configured latency and bandwidth; use
// a small -latency-ms for quick probes.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"sync"

	"moc/internal/core"
	"moc/internal/simtime"
	"moc/internal/storage"
	"moc/internal/storage/cache"
	"moc/internal/storage/cas"
	"moc/internal/storage/fleet"
	"moc/internal/storage/readserve"
	"moc/internal/storage/remote"
	"moc/internal/storage/replica"
	"moc/internal/storage/shard"
)

func main() {
	dir := flag.String("dir", "", "checkpoint directory (FSStore root)")
	shardCount := flag.Int("shards", 0, "open <dir>/shard-000..shard-NNN as one consistent-hash sharded store (0 = unsharded)")
	writer := flag.String("writer", "", "list/inspect/stats: restrict to one writer's manifests")
	cacheMB := flag.Int("cache-mb", 64, "stats: chunk-cache capacity in MiB; restore: shared L2 capacity")
	latencyMS := flag.Float64("latency-ms", 20, "stats/restore: remote per-request latency in ms")
	uploadMBps := flag.Float64("upload-mbps", 256, "stats/restore: remote upload bandwidth in MiB/s")
	downloadMBps := flag.Float64("download-mbps", 512, "stats/restore: remote download bandwidth in MiB/s")
	readers := flag.Int("readers", 8, "restore: concurrent reader nodes")
	restores := flag.Int("restores", 3, "restore: sequential restores per reader")
	l1MB := flag.Int("l1-mb", 16, "restore: per-reader L1 cache capacity in MiB")
	watch := flag.Bool("watch", false, "top: sample the registry repeatedly while a replay loop drives load (default one-shot)")
	intervalS := flag.Float64("interval", 1.0, "top: -watch sampling interval in seconds")
	ticks := flag.Int("ticks", 5, "top: -watch samples before exiting")
	flag.Parse()
	cmd := flag.Arg(0)
	// vet works on a source tree and chaos on a scenario spec, not a
	// checkpoint directory: dispatch before the -dir requirement, each
	// with its own flag set.
	if cmd == "vet" {
		os.Exit(runVet(flag.Args()[1:]))
	}
	if cmd == "chaos" {
		os.Exit(runChaos(flag.Args()[1:]))
	}
	if cmd == "trace" {
		os.Exit(runTrace(flag.Args()[1:]))
	}
	if *dir == "" || cmd == "" {
		fmt.Fprintln(os.Stderr, "usage: mocckpt [flags] -dir <path> {list|inspect|verify|gc|stats|restore|top|jobs|shards} | mocckpt vet [packages] | mocckpt chaos [flags] | mocckpt trace [flags]")
		os.Exit(2)
	}
	// Go's flag parsing stops at the first positional argument, so flags
	// placed after the subcommand would be silently ignored — and the
	// cost-model numbers would silently lie. Reject them instead.
	if flag.NArg() > 1 {
		fmt.Fprintf(os.Stderr, "mocckpt: unexpected arguments after %q: %v (flags go before the subcommand)\n",
			cmd, flag.Args()[1:])
		os.Exit(2)
	}
	store, router, err := openStore(*dir, *shardCount)
	if err != nil {
		fatal(err)
	}
	switch cmd {
	case "shards":
		if err := shardsView(router); err != nil {
			fatal(err)
		}
	case "list":
		if err := list(store, false, *writer); err != nil {
			fatal(err)
		}
	case "inspect":
		if err := list(store, true, *writer); err != nil {
			fatal(err)
		}
	case "jobs":
		if err := jobs(store); err != nil {
			fatal(err)
		}
	case "verify":
		agent := openAgent(store)
		defer agent.Close()
		n, rep, err := agent.VerifyAudit()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("OK: %d recoverable blobs verified (latest complete round %d)\n",
			n, agent.LatestCompleteRound())
		fmt.Printf("refcount audit: %d rounds, %d manifests, %d module entries\n",
			rep.Rounds, rep.Manifests, rep.Modules)
		fmt.Printf("  %d chunks stored, %d referenced (%d references total)\n",
			rep.ChunksStored, rep.ChunksReferenced, rep.RefTotal)
		if len(rep.Orphans) > 0 {
			fmt.Printf("  %d orphan chunks (unreferenced; reclaim with 'gc')\n", len(rep.Orphans))
		}
		// The recoverable-blob pass reads each module NAME's newest copy;
		// on a multi-job store several writers reuse the same names, so
		// chunks exclusive to another job's lineage are never read back.
		// Re-hash every stored chunk so corruption anywhere is caught.
		if err := verifyChunks(store); err != nil {
			fatal(err)
		}
	case "stats":
		// The remote cost model treats zero as "use the default", so a
		// zero flag would silently charge the default cost instead of
		// none — reject it rather than lie in the printed numbers.
		if *cacheMB <= 0 || *latencyMS <= 0 || *uploadMBps <= 0 || *downloadMBps <= 0 {
			fatal(fmt.Errorf("stats: -cache-mb, -latency-ms, -upload-mbps and -download-mbps must be positive (use a small value like 0.001 to model a near-free remote)"))
		}
		if err := stats(store, router, *cacheMB, *latencyMS, *uploadMBps, *downloadMBps, *writer); err != nil {
			fatal(err)
		}
	case "restore":
		if *cacheMB <= 0 || *l1MB <= 0 || *latencyMS <= 0 || *uploadMBps <= 0 || *downloadMBps <= 0 {
			fatal(fmt.Errorf("restore: -cache-mb, -l1-mb, -latency-ms, -upload-mbps and -download-mbps must be positive (use a small value like 0.001 to model a near-free remote)"))
		}
		if *readers <= 0 || *restores <= 0 {
			fatal(fmt.Errorf("restore: -readers and -restores must be positive"))
		}
		if err := restoreProbe(store, *readers, *restores, *l1MB, *cacheMB, *latencyMS, *uploadMBps, *downloadMBps); err != nil {
			fatal(err)
		}
	case "top":
		if *cacheMB <= 0 || *latencyMS <= 0 || *uploadMBps <= 0 || *downloadMBps <= 0 {
			fatal(fmt.Errorf("top: -cache-mb, -latency-ms, -upload-mbps and -download-mbps must be positive"))
		}
		if *intervalS <= 0 || *ticks <= 0 {
			fatal(fmt.Errorf("top: -interval and -ticks must be positive"))
		}
		if err := runTop(store, *watch, time.Duration(*intervalS*float64(time.Second)), *ticks,
			*cacheMB, *latencyMS, *uploadMBps, *downloadMBps); err != nil {
			fatal(err)
		}
	case "gc", "compact":
		if err := gc(store); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintf(os.Stderr, "mocckpt: unknown command %q\n", cmd)
		os.Exit(2)
	}
}

// openStore opens the directory as a plain FSStore, or — with -shards
// N > 1 — as the consistent-hash router over its shard-%03d
// subdirectories (the layout a fleet over NewShardedStore FSStore
// shards writes). Shard names derive from the directory names, so the
// router places every key exactly where the writing process did.
func openStore(dir string, shards int) (storage.PersistStore, *shard.Router, error) {
	if shards <= 1 {
		s, err := storage.NewFSStore(dir)
		return s, nil, err
	}
	stores := make([]storage.PersistStore, shards)
	for i := range stores {
		fs, err := storage.NewFSStore(filepath.Join(dir, fmt.Sprintf("shard-%03d", i)))
		if err != nil {
			return nil, nil, err
		}
		stores[i] = fs
	}
	r, err := shard.New(shard.Config{Stores: stores})
	if err != nil {
		return nil, nil, err
	}
	return r, r, nil
}

// shardsView prints each shard's slice of the keyspace: chunk counts
// and bytes, manifests, the balance factor, and misplaced keys — keys
// stored on a shard the ring no longer routes them to, the footprint an
// interrupted rebalance leaves behind.
func shardsView(r *shard.Router) error {
	if r == nil {
		return fmt.Errorf("the shards view needs -shards N (N > 1) to open a sharded store")
	}
	fmt.Printf("%-12s %-8s %-14s %-10s %-8s %s\n",
		"shard", "chunks", "chunk-bytes", "manifests", "other", "misplaced")
	var totalBytes, maxBytes int64
	var totalMisplaced int
	n := r.ShardCount()
	for i := 0; i < n; i++ {
		keys, err := r.Shard(i).Keys("")
		if err != nil {
			return fmt.Errorf("shard %s: %w", r.ShardName(i), err)
		}
		var chunks, manifests, other, misplaced int
		var bytes int64
		for _, k := range keys {
			switch {
			case strings.HasPrefix(k, cas.ChunkPrefix):
				chunks++
				if blob, err := r.Shard(i).Get(k); err == nil {
					bytes += int64(len(blob))
				}
			case strings.HasPrefix(k, cas.ManifestPrefix):
				manifests++
			default:
				other++
			}
			if r.Locate(k) != i {
				misplaced++
			}
		}
		totalBytes += bytes
		totalMisplaced += misplaced
		if bytes > maxBytes {
			maxBytes = bytes
		}
		fmt.Printf("%-12s %-8d %-14d %-10d %-8d %d\n",
			r.ShardName(i), chunks, bytes, manifests, other, misplaced)
	}
	if totalBytes > 0 {
		mean := float64(totalBytes) / float64(n)
		fmt.Printf("\nbalance factor: %.2f (max/mean chunk bytes; 1.00 = perfectly even)\n",
			float64(maxBytes)/mean)
	}
	if totalMisplaced > 0 {
		fmt.Printf("%d keys sit on shards the ring does not route them to — an interrupted\nrebalance; re-run the membership change and Rebalance to finish it\n", totalMisplaced)
	}
	return nil
}

func openAgent(store storage.PersistStore) *core.Agent {
	agent, err := core.NewAgent(storage.NewSnapshotStore(), store, 2)
	if err != nil {
		fatal(err)
	}
	return agent
}

// list prints the per-round manifest summary; detailed mode adds
// per-module chunk breakdowns and store-wide dedup accounting. A
// non-empty writerFilter restricts the view to that writer's manifests
// (multi-job stores hold several writers in one chunk namespace).
func list(store storage.PersistStore, detailed bool, writerFilter string) error {
	cs, err := cas.Open(store, cas.Options{})
	if err != nil {
		return err
	}
	rounds := cs.Rounds()
	if len(rounds) == 0 {
		fmt.Println("no checkpoints")
		return nil
	}
	fmt.Printf("%-8s %-10s %-8s %-8s %-12s %s\n", "round", "writers", "modules", "chunks", "bytes", "status")
	var acct dedupAccounting
	matched := false
	for _, r := range rounds {
		var ms []*cas.Manifest
		for _, m := range cs.ManifestsForRound(r) {
			if writerFilter == "" || m.Writer == writerFilter {
				ms = append(ms, m)
			}
		}
		if len(ms) == 0 {
			continue
		}
		matched = true
		var modules, chunks int
		var logical int64
		for _, m := range ms {
			modules += len(m.Modules)
			logical += m.LogicalBytes()
			for _, e := range m.Modules {
				chunks += len(e.Chunks)
			}
			acct.add(m)
		}
		fmt.Printf("%-8d %-10d %-8d %-8d %-12d complete\n", r, len(ms), modules, chunks, logical)
		if detailed {
			for _, m := range ms {
				for _, e := range m.Modules {
					fmt.Printf("    %-40s %8d bytes  %4d chunks  (writer %s)\n",
						e.Module, e.Size, len(e.Chunks), m.Writer)
				}
			}
		}
	}
	if !matched {
		return fmt.Errorf("no manifests for writer %q", writerFilter)
	}
	logical, physical := acct.totals()
	fmt.Printf("\n%d unique chunks; ", len(acct.refs))
	printDedupLine(logical, physical)
	acct.printWriterBreakdown()
	if detailed {
		fmt.Printf("chunking: %s\n", acct.chunkingModes())
		acct.printHistogram()
	}
	return nil
}

// jobs prints the fleet job registry and each job's storage footprint
// on the shared store, ending with the cross-job dedup summary: the
// chunk volume the shared store holds versus what the same jobs would
// hold on per-job independent stores.
func jobs(store storage.PersistStore) error {
	svc, err := fleet.Open(store, fleet.Config{})
	if err != nil {
		return err
	}
	st, err := svc.Stats()
	if err != nil {
		return err
	}
	if len(st.Jobs) == 0 {
		fmt.Println("no jobs (empty store)")
		return nil
	}
	if len(svc.Jobs()) == 0 {
		fmt.Println("no fleet registry; showing per-writer footprints")
	}
	now := simtime.WallNow()
	fmt.Printf("%-16s %-16s %-6s %-14s %-8s %-14s %-14s %s\n",
		"job", "parent", "epoch", "lease", "rounds", "logical", "chunk-bytes", "exclusive")
	for _, j := range st.Jobs {
		id, parent := j.ID, j.Parent
		if !j.Registered {
			id = j.ID + "*" // unregistered writer sharing the store
		}
		if parent == "" {
			parent = "-"
		}
		// The lease column distinguishes a live lease (time remaining
		// before liveness runs out) from the orphan state a crash or
		// preemption leaves: EXPIRED means the job was attached at least
		// once, its lease ran out, and nobody has adopted it.
		lease := "-"
		switch {
		case j.LeaseHeld:
			left := time.Unix(0, j.LeaseExpiresUnixNano).Sub(now).Truncate(time.Second)
			lease = fmt.Sprintf("held %s", left)
		case j.Registered && j.Epoch > 0:
			lease = "EXPIRED"
		}
		fmt.Printf("%-16s %-16s %-6d %-14s %-8d %-14d %-14d %d\n",
			id, parent, j.Epoch, lease, j.Rounds, j.LogicalBytes, j.ChunkBytes, j.ExclusiveChunkBytes)
	}
	fmt.Printf("\nshared store: %d chunk bytes; independent per-job stores would hold %d",
		st.PhysicalChunkBytes, st.IndependentChunkBytes)
	if st.IndependentChunkBytes > 0 {
		fmt.Printf(" (cross-job dedup %.1f%%)", 100*st.CrossJobDedupRatio)
	}
	fmt.Println()
	fmt.Print("dedup: ")
	printDedupLine(st.LogicalBytes, st.PhysicalChunkBytes)
	return nil
}

// verifyChunks re-hashes every stored chunk against its content
// address — the exhaustive sweep the fleet scrub daemon runs a bounded
// window of per pass.
func verifyChunks(store storage.PersistStore) error {
	keys, err := store.Keys(cas.ChunkPrefix)
	if err != nil {
		return err
	}
	var corrupt []string
	for _, k := range keys {
		want, err := cas.ParseHash(strings.TrimPrefix(k, cas.ChunkPrefix))
		if err != nil {
			return fmt.Errorf("foreign key %q under chunk prefix", k)
		}
		blob, err := store.Get(k)
		if err != nil {
			return fmt.Errorf("read chunk %s: %w", k, err)
		}
		if cas.HashBytes(blob) != want {
			corrupt = append(corrupt, want.String())
		}
	}
	if len(corrupt) > 0 {
		return fmt.Errorf("%d of %d stored chunks fail their content address (first %s)",
			len(corrupt), len(keys), corrupt[0])
	}
	fmt.Printf("  %d stored chunks re-hashed against their addresses\n", len(keys))
	return nil
}

// gc is the offline collection: every writer keeps, per module, its
// newest persisted copy (what that writer's recovery would read) plus
// its latest round's manifest as the completeness anchor; chunks then
// live by refcount across all surviving manifests. The liveness is
// writer-scoped — on a multi-job store, one job's rounds never count
// against another's, matching the fleet service's Retain — but unlike
// the online service this admin tool judges every writer: the store is
// assumed quiesced.
func gc(store storage.PersistStore) error {
	cs, err := cas.Open(store, cas.Options{})
	if err != nil {
		return err
	}
	before, err := cs.PhysicalBytes()
	if err != nil {
		return err
	}
	live, keepEmpty := cas.NewestLiveness(cs.Manifests(), nil)
	st, err := cs.RetainScoped(live, keepEmpty)
	if err != nil {
		return err
	}
	after, err := cs.PhysicalBytes()
	if err != nil {
		return err
	}
	fmt.Printf("gc: %d manifest entries dropped, %d manifests deleted, %d chunks swept\n",
		st.EntriesDropped, st.ManifestsDeleted, st.ChunksDeleted)
	fmt.Printf("    %d -> %d physical bytes\n", before, after)
	return nil
}

// dedupAccounting accumulates chunk references across manifests: chunks
// shared between rounds (or writers) are the dedup evidence.
type dedupAccounting struct {
	refs      map[cas.Hash]int64
	chunkSize map[cas.Hash]int64
	rounds    map[int]bool
	modes     map[string]int // manifest count per chunking mode
	writers   map[string]*writerAcct
	modules   int
	manifests int
}

// writerAcct is one writer's share of the accounting — the per-job view
// of a multi-writer store.
type writerAcct struct {
	manifests int
	modules   int
	logical   int64
	chunks    map[cas.Hash]int64
}

func (d *dedupAccounting) add(m *cas.Manifest) {
	if d.refs == nil {
		d.refs = map[cas.Hash]int64{}
		d.chunkSize = map[cas.Hash]int64{}
		d.rounds = map[int]bool{}
		d.modes = map[string]int{}
		d.writers = map[string]*writerAcct{}
	}
	d.rounds[m.Round] = true
	d.manifests++
	d.modules += len(m.Modules)
	d.modes[fmt.Sprintf("%s (manifest v%d)", m.Chunking, m.Version)]++
	w := d.writers[m.Writer]
	if w == nil {
		w = &writerAcct{chunks: map[cas.Hash]int64{}}
		d.writers[m.Writer] = w
	}
	w.manifests++
	w.modules += len(m.Modules)
	w.logical += m.LogicalBytes()
	for _, e := range m.Modules {
		for _, c := range e.Chunks {
			d.refs[c.Hash]++
			d.chunkSize[c.Hash] = int64(c.Size)
			w.chunks[c.Hash] = int64(c.Size)
		}
	}
}

// printWriterBreakdown prints one line per writer — the per-job view of
// a multi-job store — with each writer's unique chunk bytes and the
// subset no other writer shares. Single-writer stores print nothing.
func (d *dedupAccounting) printWriterBreakdown() {
	if len(d.writers) <= 1 {
		return
	}
	chunkWriters := map[cas.Hash]int{}
	for _, w := range d.writers {
		for h := range w.chunks {
			chunkWriters[h]++
		}
	}
	names := make([]string, 0, len(d.writers))
	for name := range d.writers {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("per-writer breakdown (%d writers share the chunk namespace):\n", len(names))
	for _, name := range names {
		w := d.writers[name]
		var unique, exclusive int64
		for h, size := range w.chunks {
			unique += size
			if chunkWriters[h] == 1 {
				exclusive += size
			}
		}
		fmt.Printf("  %-24s %3d manifests  %4d modules  %12d logical  %12d chunk bytes (%d exclusive)\n",
			name, w.manifests, w.modules, w.logical, unique, exclusive)
	}
}

// chunkingModes names the chunker(s) that wrote the store's manifests —
// normally one, but a store migrated between modes shows both.
func (d *dedupAccounting) chunkingModes() string {
	names := make([]string, 0, len(d.modes))
	for name := range d.modes {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = fmt.Sprintf("%s × %d", name, d.modes[name])
	}
	return strings.Join(parts, ", ")
}

// printHistogram prints a power-of-two histogram of unique chunk sizes.
func (d *dedupAccounting) printHistogram() {
	if len(d.chunkSize) == 0 {
		return
	}
	buckets := map[int]int{} // log2 bucket -> unique chunk count
	maxCount := 0
	for _, size := range d.chunkSize {
		b := 0
		for s := size; s > 1; s >>= 1 {
			b++
		}
		buckets[b]++
		if buckets[b] > maxCount {
			maxCount = buckets[b]
		}
	}
	order := make([]int, 0, len(buckets))
	for b := range buckets {
		order = append(order, b)
	}
	sort.Ints(order)
	fmt.Println("unique chunk sizes:")
	for _, b := range order {
		bar := strings.Repeat("#", (buckets[b]*40+maxCount-1)/maxCount)
		fmt.Printf("  %10s–%-10s %6d %s\n", sizeLabel(1<<b), sizeLabel(1<<(b+1)), buckets[b], bar)
	}
}

// sizeLabel formats a byte count compactly (1.0K, 64K, 2.0M).
func sizeLabel(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%gM", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%gK", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// totals returns the referenced (logical) and unique (physical) chunk
// byte volumes.
func (d *dedupAccounting) totals() (logical, physical int64) {
	for h, n := range d.refs {
		logical += n * d.chunkSize[h]
		physical += d.chunkSize[h]
	}
	return logical, physical
}

// printDedupLine prints "L logical -> P physical chunk bytes (dedup X%)".
func printDedupLine(logical, physical int64) {
	fmt.Printf("%d logical -> %d physical chunk bytes", logical, physical)
	if logical > 0 {
		fmt.Printf(" (dedup %.1f%%)", 100*float64(logical-physical)/float64(logical))
	}
	fmt.Println()
}

// stats replays every committed module through the simulated storage
// stack — the directory as an object store with a cost model, fronted by
// a SIEVE chunk cache — and prints dedup, cache, and remote counters.
// The first pass is the cold-cache recovery; the second replays it warm.
// A non-empty writerFilter restricts the accounting and the replay to
// one writer's manifests.
func stats(fsStore storage.PersistStore, router *shard.Router, cacheMB int, latencyMS, uploadMBps, downloadMBps float64, writerFilter string) error {
	rs, err := remote.New(remote.Config{
		Inner:          fsStore,
		LatencySeconds: latencyMS / 1000,
		UploadBps:      uploadMBps * (1 << 20),
		DownloadBps:    downloadMBps * (1 << 20),
	})
	if err != nil {
		return err
	}
	// A single-backend replica layer rides along purely for its health
	// accounting: per-backend latency EWMAs and slow-skip routing
	// counters feed the health block below.
	rep, err := replica.New(rs)
	if err != nil {
		return err
	}
	cs, err := cache.New(rep, int64(cacheMB)<<20)
	if err != nil {
		return err
	}
	store, err := cas.Open(cs, cas.Options{})
	if err != nil {
		return err
	}
	manifests := store.Manifests()
	if writerFilter != "" {
		kept := manifests[:0]
		for _, m := range manifests {
			if m.Writer == writerFilter {
				kept = append(kept, m)
			}
		}
		manifests = kept
		if len(manifests) == 0 {
			return fmt.Errorf("no manifests for writer %q", writerFilter)
		}
	}
	if len(manifests) == 0 {
		fmt.Println("no checkpoints")
		return nil
	}

	var acct dedupAccounting
	for _, m := range manifests {
		acct.add(m)
	}
	logical, physical := acct.totals()
	fmt.Printf("store: %d rounds, %d manifests, %d module entries, %d unique chunks\n",
		len(acct.rounds), acct.manifests, acct.modules, len(acct.refs))
	fmt.Printf("chunking: %s\n", acct.chunkingModes())
	fmt.Print("dedup: ")
	printDedupLine(logical, physical)
	acct.printWriterBreakdown()
	acct.printHistogram()

	// Replay: read every module of every round, cold then warm.
	replay := func() error {
		for _, m := range manifests {
			for _, e := range m.Modules {
				if _, err := store.ReadModule(m.Round, e.Module); err != nil {
					return fmt.Errorf("replay %s@%06d: %w", e.Module, m.Round, err)
				}
			}
		}
		return nil
	}
	coldBase, coldCache := rs.Metrics(), cs.Stats()
	if err := replay(); err != nil {
		return err
	}
	coldM, coldC := rs.Metrics(), cs.Stats()
	if err := replay(); err != nil {
		return err
	}
	warmM, warmC := rs.Metrics(), cs.Stats()

	coldReads := (coldC.Hits + coldC.Misses) - (coldCache.Hits + coldCache.Misses)
	warmReads := (warmC.Hits + warmC.Misses) - (coldC.Hits + coldC.Misses)
	fmt.Printf("cold replay: %d chunk reads, cache hit rate %.1f%%, %d remote gets, %d bytes down, %.3f sim s\n",
		coldReads,
		hitRate(coldC.Hits-coldCache.Hits, coldReads),
		coldM.GetOps-coldBase.GetOps,
		coldM.BytesDownloaded-coldBase.BytesDownloaded,
		coldM.SimSeconds-coldBase.SimSeconds)
	fmt.Printf("warm replay: %d chunk reads, cache hit rate %.1f%%, %d remote gets, %d bytes down, %.3f sim s\n",
		warmReads,
		hitRate(warmC.Hits-coldC.Hits, warmReads),
		warmM.GetOps-coldM.GetOps,
		warmM.BytesDownloaded-coldM.BytesDownloaded,
		warmM.SimSeconds-coldM.SimSeconds)
	fmt.Printf("cache: %d entries, %d/%d bytes used, %d insertions, %d evictions\n",
		warmC.Entries, warmC.Bytes, warmC.Capacity, warmC.Insertions, warmC.Evictions)
	fmt.Printf("remote totals: %d gets, %d lists, %d retries, %d injected failures, %.3f sim s\n",
		warmM.GetOps, warmM.ListOps, warmM.Retries, warmM.InjectedFailures, warmM.SimSeconds)
	printHealth(warmM, rep, router)
	return persistProbe(store, manifests)
}

// printHealth is the stats health block: the degradation counters of
// the remote cost model, the replica layer's slow-path accounting, and
// — against a sharded store — the chunk balance factor.
func printHealth(m remote.Metrics, rep *replica.Store, router *shard.Router) {
	fmt.Println("health:")
	fmt.Printf("  remote:  %d degraded ops, %d retries, %d injected failures\n",
		m.DegradedOps, m.Retries, m.InjectedFailures)
	lats := rep.BackendLatencies()
	parts := make([]string, len(lats))
	for i, l := range lats {
		parts[i] = fmt.Sprintf("%.2fms", l*1000)
	}
	fmt.Printf("  replica: %d backend(s), %d slow skips, latency EWMA [%s]\n",
		len(lats), rep.SlowSkips(), strings.Join(parts, " "))
	if router == nil {
		return
	}
	balance, shards, err := shardChunkBalance(router)
	if err != nil {
		fmt.Printf("  shards:  balance unavailable: %v\n", err)
		return
	}
	fmt.Printf("  shards:  balance factor %.2f over %d shards (max/mean chunks; 1.00 = even)\n",
		balance, shards)
}

// shardChunkBalance lists each shard's chunk keys and reports the
// max/mean chunk-count ratio (1.0 = perfectly even).
func shardChunkBalance(r *shard.Router) (float64, int, error) {
	n := r.ShardCount()
	var total, max int
	for i := 0; i < n; i++ {
		keys, err := r.Shard(i).Keys(cas.ChunkPrefix)
		if err != nil {
			return 0, n, fmt.Errorf("shard %s: %w", r.ShardName(i), err)
		}
		total += len(keys)
		if len(keys) > max {
			max = len(keys)
		}
	}
	if total == 0 {
		return 1, n, nil
	}
	return float64(max) / (float64(total) / float64(n)), n, nil
}

// persistProbe measures the persist pipeline on this store's own data:
// the newest round's modules are written into a fresh in-memory store
// (same chunking mode) twice. The first write chunks, hashes, and puts
// everything — the pipeline's cold MB/s; the second presents
// byte-identical payloads, so it exercises the unchanged-module fast
// path. The stage counters printed are the store's pipeline telemetry.
func persistProbe(store *cas.Store, manifests []*cas.Manifest) error {
	newest := manifests[len(manifests)-1]
	mods, err := store.ReadRound(newest.Round)
	if err != nil {
		return fmt.Errorf("persist probe: read round %06d: %w", newest.Round, err)
	}
	if len(mods) == 0 {
		return nil
	}
	var logical int64
	for _, blob := range mods {
		logical += int64(len(blob))
	}
	probe, err := cas.Open(storage.NewMemStore(), cas.Options{Chunking: newest.Chunking})
	if err != nil {
		return fmt.Errorf("persist probe: %w", err)
	}
	start := simtime.WallNow()
	if _, err := probe.WriteRound(0, mods); err != nil {
		return fmt.Errorf("persist probe: %w", err)
	}
	cold := simtime.WallSince(start)
	start = simtime.WallNow()
	if _, err := probe.WriteRound(1, mods); err != nil {
		return fmt.Errorf("persist probe: %w", err)
	}
	unchanged := simtime.WallSince(start)
	st := probe.Stats()
	fmt.Printf("persist probe (round %06d replayed into a fresh %s-chunked memory store):\n",
		newest.Round, newest.Chunking)
	fmt.Printf("  cold round:      %8.1f MB/s (%d modules, %d bytes, every chunk new)\n",
		mbps(logical, cold), len(mods), logical)
	fmt.Printf("  unchanged round: %8.1f MB/s (whole-module fast path, zero chunk hashes)\n",
		mbps(logical, unchanged))
	fmt.Printf("  pipeline: %d chunks hashed, %d written, %d deduped, %d modules skipped unchanged\n",
		st.ChunksHashed, st.ChunksWritten, st.ChunksDeduped, st.ModulesUnchanged)
	return nil
}

// restoreProbe drives the read-serving tier against the store's newest
// round: `readers` reader nodes — each a private L1 over one shared
// warm L2 over the directory behind the object-store cost model —
// concurrently restore the round `restores` times each. The remote
// model really sleeps its simulated cost (SleepScale 1), so the printed
// time-to-restored-model percentiles reflect the configured latency and
// bandwidth; the tier counters show where each read was absorbed.
func restoreProbe(fsStore storage.PersistStore, readers, restores, l1MB, l2MB int, latencyMS, uploadMBps, downloadMBps float64) error {
	rs, err := remote.New(remote.Config{
		Inner:          fsStore,
		LatencySeconds: latencyMS / 1000,
		UploadBps:      uploadMBps * (1 << 20),
		DownloadBps:    downloadMBps * (1 << 20),
		SleepScale:     1,
	})
	if err != nil {
		return err
	}
	tier, err := readserve.New(rs, readserve.Config{L1Bytes: int64(l1MB) << 20, L2Bytes: int64(l2MB) << 20})
	if err != nil {
		return err
	}
	// Pick the newest round through the raw directory, without charging
	// the cost model for the index scan.
	idx, err := cas.Open(fsStore, cas.Options{})
	if err != nil {
		return err
	}
	rounds := idx.Rounds()
	if len(rounds) == 0 {
		fmt.Println("no checkpoints")
		return nil
	}
	round := rounds[len(rounds)-1]

	pools := make([]*readserve.Pool, readers)
	for i := range pools {
		node, err := tier.NewNode()
		if err != nil {
			return err
		}
		cs, err := cas.Open(node, cas.Options{})
		if err != nil {
			return fmt.Errorf("reader %d: %w", i, err)
		}
		pool, err := readserve.NewPool(cs)
		if err != nil {
			return err
		}
		pools[i] = pool
	}

	var (
		mu        sync.Mutex
		durations []time.Duration
		firstErr  error
	)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, pool := range pools {
		wg.Add(1)
		go func(p *readserve.Pool) {
			defer wg.Done()
			<-start
			for r := 0; r < restores; r++ {
				t0 := simtime.WallNow()
				_, err := p.ReadRound(round)
				d := simtime.WallSince(t0)
				mu.Lock()
				durations = append(durations, d)
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(pool)
	}
	close(start)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	sort.Slice(durations, func(i, j int) bool { return durations[i] < durations[j] })
	st := tier.Stats()
	m := rs.Metrics()
	fmt.Printf("restore probe: round %06d, %d readers × %d restores (L1 %d MiB/node, L2 %d MiB shared)\n",
		round, readers, restores, l1MB, l2MB)
	fmt.Printf("time-to-restored-model: p50 %s  p99 %s  max %s\n",
		pctl(durations, 50), pctl(durations, 99), durations[len(durations)-1].Round(time.Microsecond))
	fmt.Printf("L1 (per-reader): %5.1f%% hit ratio (%d hits / %d misses), %d coalesced\n",
		100*st.L1HitRatio(), st.L1Hits, st.L1Misses, st.L1Coalesced)
	fmt.Printf("L2 (shared):     %5.1f%% hit ratio (%d hits / %d misses), %d coalesced, %d promotions\n",
		100*st.L2HitRatio(), st.L2Hits, st.L2Misses, st.L2Coalesced, st.Promotions)
	fmt.Printf("backend: %d gets (%d cold, %d repeat), %d bytes down, %.3f sim s\n",
		st.BackendGets, m.ColdGets, m.RepeatGets, m.BytesDownloaded, m.SimSeconds)
	return nil
}

// pctl returns the p-th percentile of sorted durations, rounded for
// display.
func pctl(sorted []time.Duration, p int) time.Duration {
	i := len(sorted) * p / 100
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i].Round(time.Microsecond)
}

func mbps(n int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds() / (1 << 20)
}

func hitRate(hits, total int64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(total)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mocckpt:", err)
	os.Exit(1)
}
