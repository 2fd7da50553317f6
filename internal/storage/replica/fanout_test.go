package replica

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/simtime"
	"moc/internal/storage"
)

var errBarrierTimeout = errors.New("barrier: the other backend never entered")

// barrier releases its waiters once parties of them have entered.
type barrier struct {
	parties int32
	entered atomic.Int32
}

func (b *barrier) wait() error {
	b.entered.Add(1)
	if !simtime.Eventually(5*time.Second, 100*time.Microsecond, func() bool {
		return b.entered.Load() >= b.parties
	}) {
		return errBarrierTimeout
	}
	return nil
}

// barrierStore blocks every write on a shared barrier before applying
// it, so a write succeeds only when the replica store has the other
// backend's write in flight at the same time.
type barrierStore struct {
	*storage.MemStore
	gate *barrier
}

func (s *barrierStore) Put(key string, data []byte) error {
	if err := s.gate.wait(); err != nil {
		return err
	}
	return s.MemStore.Put(key, data)
}

func (s *barrierStore) PutOwned(key string, data []byte) error { return s.Put(key, data) }

func (s *barrierStore) Delete(key string) error {
	if err := s.gate.wait(); err != nil {
		return err
	}
	return s.MemStore.Delete(key)
}

func TestWriteFanOutOverlapsBackends(t *testing.T) {
	// Each backend's write waits until the other's has started: a
	// sequential fan-out would time the first backend out.
	a := &barrierStore{MemStore: storage.NewMemStore()}
	b := &barrierStore{MemStore: storage.NewMemStore()}
	r, err := New(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"Put", func() error { return r.Put("k", []byte("v")) }},
		{"PutOwned", func() error { return r.PutOwned("k", []byte("v")) }},
		{"Delete", func() error { return r.Delete("k") }},
	} {
		gate := &barrier{parties: 2}
		a.gate, b.gate = gate, gate
		if err := op.run(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		for i, err := range r.Health() {
			if err != nil {
				t.Fatalf("%s: backend %d did not overlap: %v", op.name, i, err)
			}
		}
	}
}

func TestWriteFanOutOneBackendDown(t *testing.T) {
	fa, b := NewFlaky(storage.NewMemStore()), storage.NewMemStore()
	r, err := New(fa, b)
	if err != nil {
		t.Fatal(err)
	}
	fa.Fail()
	if err := r.Put("k", []byte("v")); err != nil {
		t.Fatalf("put with one live replica: %v", err)
	}
	if got, err := b.Get("k"); err != nil || string(got) != "v" {
		t.Fatalf("live replica after put: %q %v", got, err)
	}
	if h := r.Health(); !errors.Is(h[0], ErrBackendDown) || h[1] != nil {
		t.Fatalf("health after put: %v", h)
	}
	if err := r.Delete("k"); err != nil {
		t.Fatalf("delete with one live replica: %v", err)
	}
	if _, err := b.Get("k"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("live replica still holds k: %v", err)
	}
	if h := r.Health(); !errors.Is(h[0], ErrBackendDown) || h[1] != nil {
		t.Fatalf("health after delete: %v", h)
	}
}

func TestWriteFanOutAllDownListsBackendsInOrder(t *testing.T) {
	var backends []storage.PersistStore
	for i := 0; i < 3; i++ {
		f := NewFlaky(storage.NewMemStore())
		f.Fail()
		backends = append(backends, f)
	}
	r, err := New(backends...)
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() error{
		"Put":      func() error { return r.Put("k", []byte("v")) },
		"PutOwned": func() error { return r.PutOwned("k", []byte("v")) },
		"Delete":   func() error { return r.Delete("k") },
	} {
		err := run()
		if err == nil {
			t.Fatalf("%s succeeded with every backend down", name)
		}
		msg := err.Error()
		last := -1
		for _, want := range []string{"backend 0: ", "backend 1: ", "backend 2: "} {
			at := strings.Index(msg, want)
			if at <= last {
				t.Fatalf("%s error lists backends out of order: %s", name, msg)
			}
			last = at
		}
	}
}
