// Remote-recovery tour: checkpoint through the full storage stack —
// content-addressed chunks, write-through a SIEVE cache, into a
// simulated object store with per-request latency, bandwidth limits,
// multipart uploads, and injected transient failures — then compare
// what recovery costs with the cache warm (a surviving node) versus
// cold (a replacement node reading everything back from the remote).
// Finally, calibrate the timing simulator's persist phase from the
// measured remote cost and show the checkpoint cadence it implies.
//
//	go run ./examples/remote_recovery
package main

import (
	"fmt"
	"log"

	moc "moc"
	"moc/internal/simtime"
)

func main() {
	remoteCfg := moc.RemoteConfig{
		LatencySeconds: 0.020,    // 20 ms per request
		UploadBps:      64 << 20, // 64 MiB/s up, 128 MiB/s down
		DownloadBps:    128 << 20,
		PartSize:       2 << 10, // small parts so this tiny model multiparts
		FailureRate:    0.02,    // 2% transient request failures
		Seed:           7,
	}
	remote, err := moc.NewRemoteStore(remoteCfg)
	if err != nil {
		log.Fatal(err)
	}
	cached, err := moc.NewCachedStore(remote, 64<<20)
	if err != nil {
		log.Fatal(err)
	}

	cfg := moc.Config{
		Layers: 4, Hidden: 32, Experts: 8, TopK: 2,
		Vocab: 64, Window: 8, BatchSize: 32,
		LR: 0.01, Seed: 11,
		Interval: 10,
	}
	sys, err := moc.NewSystem(cfg, cached)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if _, err := sys.RunTo(60); err != nil {
		log.Fatal(err)
	}
	if err := sys.FlushCheckpoints(); err != nil {
		log.Fatal(err)
	}
	m := remote.Metrics()
	fmt.Printf("persist: %d puts (%d multipart, %d parts), %.1f MiB uploaded, %d transient failures retried, %.2f simulated s\n",
		m.PutOps, m.MultipartPuts, m.PartsUploaded,
		float64(m.BytesUploaded)/(1<<20), m.Retries, m.SimSeconds)

	// Warm recovery: the node failed but its cache tier survived. Every
	// hot chunk is served from memory — zero remote gets.
	before := remote.Metrics()
	if err := sys.InjectFault(); err != nil {
		log.Fatal(err)
	}
	after := remote.Metrics()
	cs := cached.CacheStats()
	fmt.Printf("warm recovery: %d remote gets, %.3f simulated s, cache hit rate %.0f%%\n",
		after.GetOps-before.GetOps, after.SimSeconds-before.SimSeconds, 100*cs.HitRatio())

	// Cold recovery: the replacement node starts with an empty cache and
	// pays the object store for every chunk.
	cached.Drop()
	before = remote.Metrics()
	resume := cfg
	resume.Resume = true
	sys2, err := moc.NewSystem(resume, cached)
	if err != nil {
		log.Fatal(err)
	}
	defer sys2.Close()
	after = remote.Metrics()
	fmt.Printf("cold recovery: %d remote gets, %.1f MiB downloaded, %.3f simulated s\n",
		after.GetOps-before.GetOps,
		float64(after.BytesDownloaded-before.BytesDownloaded)/(1<<20),
		after.SimSeconds-before.SimSeconds)

	// Calibration: measure what one 256 MiB checkpoint costs against
	// this cost model and feed it to the timing simulator as its persist
	// phase — the byte-level simulation grounding the iteration-level
	// one. Calibrate with production-shaped chunking (4 MiB chunks,
	// default 8 MiB multipart parts), not the demo's toy part size.
	calCfg := remoteCfg
	calCfg.PartSize = 0
	cal, err := moc.CalibratePersist(calCfg, 256<<20, 4<<20, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calibration: 256 MiB checkpoint -> persist %.2f s (%.2f op-s over %d writers, %d requests)\n",
		cal.PersistSeconds, cal.OpSeconds, cal.Workers, cal.Ops)
	res, err := simtime.Run(simtime.Config{
		FB: 2, Update: 0.5, Snapshot: 1,
		Persist:  cal.PersistSeconds,
		Interval: 5, Iterations: 200, Buffers: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated run with calibrated persist: %d checkpoints persisted, effective interval %.1f iterations, %d skipped triggers\n",
		res.Persisted, res.EffectiveInterval, res.Skipped)
}
