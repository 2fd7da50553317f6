package cas

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"moc/internal/storage"
)

// holdYields is how many times a held chunk fetch yields the processor:
// enough for every fetcher that is runnable — not queued on the read
// budget — to reach the backend while the fetch is still in flight.
const holdYields = 200

// budgetProbe counts the chunk fetches in flight at its backend. Each
// fetch stays in flight while it yields holdYields times, or until more
// than limit fetches are in flight (the overrun a test looks for, which
// releases at once), so a fan-out wider than limit shows up in peak.
type budgetProbe struct {
	*storage.MemStore
	limit    int64
	inflight atomic.Int64
	peak     atomic.Int64
}

func (p *budgetProbe) hold(key string) func() {
	if !strings.HasPrefix(key, chunkPrefix) {
		return func() {}
	}
	n := p.inflight.Add(1)
	for {
		peak := p.peak.Load()
		if n <= peak || p.peak.CompareAndSwap(peak, n) {
			break
		}
	}
	for i := 0; i < holdYields && p.peak.Load() <= p.limit; i++ {
		runtime.Gosched()
	}
	return func() { p.inflight.Add(-1) }
}

func (p *budgetProbe) Get(key string) ([]byte, error) {
	defer p.hold(key)()
	return p.MemStore.Get(key)
}

func (p *budgetProbe) GetView(key string) ([]byte, error) {
	defer p.hold(key)()
	return p.MemStore.GetView(key)
}

// TestReadBudgetSharedAcrossConcurrentReadRounds: two ReadRounds on one
// store each have enough chunks to fan out, yet together they keep at
// most ReadWorkers chunk fetches in flight — the budget is per store,
// not per call.
func TestReadBudgetSharedAcrossConcurrentReadRounds(t *testing.T) {
	const budget = 3
	probe := &budgetProbe{MemStore: storage.NewMemStore(), limit: budget}
	s, err := Open(probe, Options{ChunkSize: 64, ReadWorkers: budget})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]map[string][]byte, 2)
	for r := range want {
		want[r] = map[string][]byte{
			"a": payload(byte(10*r+1), 16*64),
			"b": payload(byte(10*r+2), 16*64),
		}
		if _, err := s.WriteRound(r, want[r]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, len(want))
	for r := range want {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			got, err := s.ReadRound(r)
			if err == nil {
				for name, blob := range want[r] {
					if !bytes.Equal(got[name], blob) {
						err = errors.New("module " + name + " corrupt")
					}
				}
			}
			errs[r] = err
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	if peak := probe.peak.Load(); peak > budget {
		t.Fatalf("%d chunk fetches in flight, budget is %d", peak, budget)
	}
}

// TestReadModulesAtMixedRounds: one call reads each module from its own
// round, with ReadModule's writer precedence, and attributes errors to
// module@round.
func TestReadModulesAtMixedRounds(t *testing.T) {
	backend := storage.NewMemStore()
	s, err := Open(backend, Options{ChunkSize: 64, Writer: "wa"})
	if err != nil {
		t.Fatal(err)
	}
	r0 := map[string][]byte{"a": payload(1, 300), "b": payload(2, 300)}
	r1 := map[string][]byte{"a": payload(3, 300), "c": payload(4, 300)}
	if _, err := s.WriteRound(0, r0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteRound(1, r1); err != nil {
		t.Fatal(err)
	}
	// A second writer re-persists b in round 0; writer order makes its
	// copy the one ReadModule returns.
	other, err := Open(backend, Options{ChunkSize: 64, Writer: "wb"})
	if err != nil {
		t.Fatal(err)
	}
	b0 := payload(5, 200)
	if _, err := other.WriteRound(0, map[string][]byte{"b": b0}); err != nil {
		t.Fatal(err)
	}
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}

	got, err := s.ReadModulesAt(map[string]int{"a": 0, "b": 0, "c": 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, blob := range map[string][]byte{"a": r0["a"], "b": b0, "c": r1["c"]} {
		if !bytes.Equal(got[name], blob) {
			t.Fatalf("module %s: wrong payload", name)
		}
	}
	if single, err := s.ReadModule(0, "b"); err != nil || !bytes.Equal(single, got["b"]) {
		t.Fatalf("ReadModule disagrees with ReadModulesAt on writer precedence: %v", err)
	}
	if got, err := s.ReadModulesAt(map[string]int{"a": 1}); err != nil || !bytes.Equal(got["a"], r1["a"]) {
		t.Fatalf("a@1: %v", err)
	}
	if got, err := s.ReadModulesAt(nil); err != nil || len(got) != 0 {
		t.Fatalf("empty plan: %v, %d modules", err, len(got))
	}

	// c exists, but not in round 0; round 7 has no manifest at all.
	for _, reads := range []map[string]int{{"a": 0, "c": 0}, {"a": 7}} {
		if _, err := s.ReadModulesAt(reads); !errors.Is(err, ErrModuleNotFound) {
			t.Fatalf("%v: err = %v, want ErrModuleNotFound", reads, err)
		}
	}
	_, err = s.ReadModulesAt(map[string]int{"a": 0, "c": 0})
	if !strings.Contains(err.Error(), "c@000000") {
		t.Fatalf("missing-module error %q does not name c@000000", err)
	}

	// A corrupt chunk is attributed to its own module and round.
	key := ChunkKey(s.ManifestsForRound(1)[0].Lookup("c").Chunks[0].Hash)
	if err := backend.Put(key, payload(9, 64)); err != nil {
		t.Fatal(err)
	}
	_, err = s.ReadModulesAt(map[string]int{"a": 0, "c": 1})
	if err == nil || !strings.Contains(err.Error(), "c@000001 chunk 0") {
		t.Fatalf("corrupt chunk error = %v, want one naming c@000001 chunk 0", err)
	}
}
