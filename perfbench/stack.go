package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"moc"
	"moc/internal/storage"
	"moc/internal/storage/remote"
	"moc/internal/storage/replica"
	"moc/internal/storage/shard"
)

// The canonical stack, identical in every workload:
//
//	Fleet{ReadTier} → shard (2 shards) → replica (2 backends per shard)
//	  → Flaky → remote (1 ms, really sleeping, MaxConcurrent) → FSStore
//
// Backend index b = shard*replicasPerShard + replica.
const (
	numShards        = 2
	replicasPerShard = 2
	numBackends      = numShards * replicasPerShard

	remoteLatency       = 0.001
	remoteMaxConcurrent = 4
	// replicaSlowFactor demotes a backend whose latency EWMA exceeds
	// this multiple of the fastest replica's (the chaos straggler).
	replicaSlowFactor = 3
)

// remoteConfig is the cost model every remote backend uses, in the
// public form the calibration API takes.
func remoteConfig() moc.RemoteConfig {
	return moc.RemoteConfig{
		LatencySeconds: remoteLatency,
		SleepScale:     1,
		MaxConcurrent:  remoteMaxConcurrent,
	}
}

// stack is the canonical storage stack with a probe at every boundary.
type stack struct {
	dir string
	// tracing switches every probe's timing and counting on.
	tracing atomic.Bool

	top      *topProbe
	replicas []*replicaProbe // one per shard
	backends []*flakyProbe   // one per backend
	remotes  []*remoteProbe  // one per backend
	files    []*fsProbe      // one per backend

	shardB, replicaB, backendB, remoteB, storageB boundary
}

// newStack builds the stack over fresh directories under dir.
func newStack(dir string) (*stack, error) {
	s := &stack{dir: dir}
	for _, b := range []*boundary{&s.shardB, &s.replicaB, &s.backendB, &s.remoteB, &s.storageB} {
		b.on = &s.tracing
	}
	rc := remoteConfig()
	shards := make([]storage.PersistStore, numShards)
	for i := range shards {
		members := make([]storage.PersistStore, replicasPerShard)
		for j := range members {
			fs, err := storage.NewFSStore(filepath.Join(dir, fmt.Sprintf("shard%d-replica%d", i, j)))
			if err != nil {
				return nil, err
			}
			fp := &fsProbe{FSStore: fs, b: &s.storageB}
			s.files = append(s.files, fp)
			rs, err := remote.New(remote.Config{
				LatencySeconds: rc.LatencySeconds,
				SleepScale:     rc.SleepScale,
				MaxConcurrent:  rc.MaxConcurrent,
				Inner:          fp,
			})
			if err != nil {
				return nil, err
			}
			rp := &remoteProbe{Store: rs, b: &s.remoteB}
			s.remotes = append(s.remotes, rp)
			fl := &flakyProbe{Flaky: replica.NewFlaky(rp), b: &s.backendB}
			s.backends = append(s.backends, fl)
			members[j] = fl
		}
		rep, err := replica.NewWithOptions(replica.Options{SlowFactor: replicaSlowFactor}, members...)
		if err != nil {
			return nil, err
		}
		set := &replicaProbe{Store: rep, b: &s.replicaB}
		s.replicas = append(s.replicas, set)
		shards[i] = set
	}
	router, err := shard.New(shard.Config{Stores: shards})
	if err != nil {
		return nil, err
	}
	s.top = &topProbe{Router: router, b: &s.shardB}
	return s, nil
}

// remove deletes the stack's directories.
func (s *stack) remove() error { return os.RemoveAll(s.dir) }

// remoteTotals sums the remote cost model's counters over every backend.
func (s *stack) remoteTotals() remote.Metrics {
	var t remote.Metrics
	for _, rs := range s.remotes {
		m := rs.Metrics()
		t.PutOps += m.PutOps
		t.GetOps += m.GetOps
		t.DeleteOps += m.DeleteOps
		t.ListOps += m.ListOps
		t.RepeatGets += m.RepeatGets
		t.BytesUploaded += m.BytesUploaded
		t.BytesDownloaded += m.BytesDownloaded
		t.Retries += m.Retries
		t.DegradedOps += m.DegradedOps
		t.SimSeconds += m.SimSeconds
	}
	return t
}

// replicaTotals sums the replica sets' repair and routing counters.
func (s *stack) replicaTotals() (repairs, slowSkips int64) {
	for _, r := range s.replicas {
		repairs += r.Repairs()
		slowSkips += r.SlowSkips()
	}
	return repairs, slowSkips
}

// env is one set-up instance of the canonical stack under a fleet.
type env struct {
	st    *stack
	fleet *moc.Fleet
	log   *commitLog
}

// readTier sizes the fleet's read-serving caches, the same in every
// workload: an L1 per job holding about one job's restore, and a shared
// L2 smaller than the restore-storm working set.
var readTier = moc.ReadTierConfig{L1Bytes: 1 << 20, L2Bytes: 2 << 20}

func newEnv(r *run, cfg moc.FleetConfig) (*env, error) {
	dir, err := os.MkdirTemp(r.dir, "stack-")
	if err != nil {
		return nil, err
	}
	st, err := newStack(dir)
	if err != nil {
		return nil, err
	}
	log := newCommitLog()
	st.top.onCommit = log.onCommit
	rt := readTier
	cfg.ReadTier = &rt
	f, err := moc.NewFleet(st.top, cfg)
	if err != nil {
		return nil, err
	}
	return &env{st: st, fleet: f, log: log}, nil
}

func (e *env) close() error {
	err := e.fleet.Close()
	if rmErr := e.st.remove(); err == nil {
		err = rmErr
	}
	return err
}

// modelSeed fixes the models pretrain and restore-storm train, so their
// byte and PLT counts repeat exactly from run to run; the benchmark
// seed draws the restore-storm traffic and the chaos jobs' models.
const modelSeed = 1

// pecConfig is the model every workload trains, a 4-layer, 16-expert
// MoE, with two-level PEC checkpointing on manual triggers.
func pecConfig(seed uint64) moc.Config {
	return moc.Config{
		Layers: 4, Hidden: 32, Experts: 16, TopK: 2,
		Vocab: 64, Window: 8, BatchSize: 16,
		LR: 0.01, Seed: seed,
		KSnapshot: 8, KPersist: 2, Variant: moc.VariantWO,
		TwoLevelRecovery: true, Nodes: 2,
	}
}
