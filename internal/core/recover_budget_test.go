package core

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/storage"
	"moc/internal/storage/cas"
)

var errFetchBarrier = errors.New("fetch barrier: the fan-out never reached its width")

// fetchProbe counts the chunk fetches in flight at its backend and
// shapes how long each stays in flight:
//   - limit > 0: a fetch yields the processor holdYields times, or
//     until more than limit fetches are in flight (the overrun a test
//     looks for, which releases at once), so a fan-out wider than
//     limit shows up in peak;
//   - reach > 0: every fetch waits until reach fetches have been in
//     flight together, and fails instead of hanging if that never
//     happens.
type fetchProbe struct {
	*storage.MemStore
	limit, reach int64
	inflight     atomic.Int64
	peak         atomic.Int64
	reachOnce    sync.Once
	reached      chan struct{}
}

// holdYields is enough yields for every runnable fetcher — one not
// queued on the store's read budget — to reach the backend.
const holdYields = 200

func newFetchProbe(limit, reach int64) *fetchProbe {
	return &fetchProbe{MemStore: storage.NewMemStore(), limit: limit, reach: reach, reached: make(chan struct{})}
}

func (p *fetchProbe) enter(key string) (func(), error) {
	if !strings.HasPrefix(key, cas.ChunkPrefix) {
		return func() {}, nil
	}
	n := p.inflight.Add(1)
	exit := func() { p.inflight.Add(-1) }
	for {
		peak := p.peak.Load()
		if n <= peak || p.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	if p.limit > 0 {
		for i := 0; i < holdYields && p.peak.Load() <= p.limit; i++ {
			runtime.Gosched()
		}
	}
	if p.reach > 0 {
		if n >= p.reach {
			p.reachOnce.Do(func() { close(p.reached) })
		}
		select {
		case <-p.reached:
		case <-time.After(10 * time.Second): //moc:allow walltime fails a fan-out that never widens instead of hanging; in-package test cannot import simtime (import cycle)
			exit()
			return nil, errFetchBarrier
		}
	}
	return exit, nil
}

func (p *fetchProbe) Get(key string) ([]byte, error) {
	exit, err := p.enter(key)
	if err != nil {
		return nil, err
	}
	defer exit()
	return p.MemStore.Get(key)
}

func (p *fetchProbe) GetView(key string) ([]byte, error) {
	exit, err := p.enter(key)
	if err != nil {
		return nil, err
	}
	defer exit()
	return p.MemStore.GetView(key)
}

// persistRounds snapshots and persists each round's data in turn.
func persistRounds(t *testing.T, a *Agent, rounds ...CheckpointData) {
	t.Helper()
	for r, data := range rounds {
		if !a.TrySnapshot(r, func() (CheckpointData, error) { return data, nil }, nil) {
			t.Fatalf("round %d refused", r)
		}
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
	}
}

func patterned(seed, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(seed*31 + i*7 + i/251)
	}
	return b
}

// TestAgentRecoverReadBudgetCapsFetches: a recovery over modules large
// enough for the store to fan their chunks out still keeps at most
// ReadWorkers chunk fetches in flight — module reads do not multiply
// the store's budget.
func TestAgentRecoverReadBudgetCapsFetches(t *testing.T) {
	const budget = 2
	probe := newFetchProbe(budget, 0)
	a, err := NewAgentWithOptions(storage.NewSnapshotStore(), probe, 3, cas.Options{ChunkSize: 64, ReadWorkers: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// 16 chunks per module; the experts' newest copies sit in different
	// rounds, as under PEC.
	r0 := CheckpointData{"ne": patterned(1, 1024), "e0": patterned(2, 1024), "e1": patterned(3, 1024)}
	r1 := CheckpointData{"ne": patterned(4, 1024), "e1": patterned(5, 1024)}
	persistRounds(t, a, r0, r1)

	rec, err := a.Recover(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]RecoveredModule{
		"ne": {Blob: r1["ne"], Round: 1}, "e0": {Blob: r0["e0"], Round: 0}, "e1": {Blob: r1["e1"], Round: 1},
	}
	for k, w := range want {
		if got := rec[k]; !bytes.Equal(got.Blob, w.Blob) || got.Round != w.Round {
			t.Fatalf("%s: recovered round %d, want %d (payload match %v)", k, got.Round, w.Round, bytes.Equal(got.Blob, w.Blob))
		}
	}
	if peak := probe.peak.Load(); peak > budget {
		t.Fatalf("%d chunk fetches in flight, ReadWorkers is %d", peak, budget)
	}
}

// TestAgentRecoverReadBudgetReachesDefault: a recovery of many
// one-chunk modules reaches the default read budget of 16 concurrent
// chunk fetches — small modules fan out as one flat plan rather than
// one sequential read per module.
func TestAgentRecoverReadBudgetReachesDefault(t *testing.T) {
	const modules, width = 60, 16
	probe := newFetchProbe(0, width)
	a, err := NewAgent(storage.NewSnapshotStore(), probe, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	data := make(CheckpointData, modules)
	for i := 0; i < modules; i++ {
		data[fmt.Sprintf("expert%02d", i)] = patterned(i, 512)
	}
	persistRounds(t, a, data)

	rec, err := a.Recover(nil)
	if err != nil {
		t.Fatalf("recover (peak %d chunk fetches in flight): %v", probe.peak.Load(), err)
	}
	if len(rec) != modules {
		t.Fatalf("recovered %d modules, want %d", len(rec), modules)
	}
	for k, blob := range data {
		if !bytes.Equal(rec[k].Blob, blob) {
			t.Fatalf("module %s corrupt", k)
		}
	}
	if peak := probe.peak.Load(); peak < width {
		t.Fatalf("peak %d chunk fetches in flight, want %d", peak, width)
	}
}
