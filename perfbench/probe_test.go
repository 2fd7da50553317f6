package main

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"moc"
	"moc/internal/storage"
)

// The optional interfaces consumers of the stack probe for. The fleet's
// are unexported there, so their method sets are restated here.
type (
	repairable interface {
		Backends() int
		Probe() []error
		Health() []error
		Sync() (copied int, err error)
		Repairs() int64
	}
	sharded interface {
		Shards() int
		ShardName(i int) string
		Shard(i int) storage.PersistStore
		Locate(key string) int
	}
	guardable interface {
		SetGuard(*sync.RWMutex)
	}
	shardRepairer interface {
		Sync() (int, error)
		Repairs() int64
	}
)

func typeOf[T any]() reflect.Type { return reflect.TypeOf((*T)(nil)).Elem() }

var capabilities = map[string]reflect.Type{
	"storage.OwnedPutter": typeOf[storage.OwnedPutter](),
	"storage.Viewer":      typeOf[storage.Viewer](),
	"storage.Sharder":     typeOf[storage.Sharder](),
	"fleet.repairable":    typeOf[repairable](),
	"fleet.sharded":       typeOf[sharded](),
	"fleet.guardable":     typeOf[guardable](),
	"shard.Sync/Repairs":  typeOf[shardRepairer](),
	"moc.FlakyStore":      typeOf[moc.FlakyStore](),
	"moc.ReplicatedStore": typeOf[moc.ReplicatedStore](),
}

func methodNames(t reflect.Type) []string {
	names := make([]string, t.NumMethod())
	for i := range names {
		names[i] = t.Method(i).Name
	}
	return names
}

// TestProbeParity checks, at every probed position of the stack, that
// the probe has exactly the bare layer's method set — so it satisfies
// exactly the same capabilities and the traced run measures the same
// program as the untraced one.
func TestProbeParity(t *testing.T) {
	s, err := newStack(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	positions := []struct {
		name          string
		bare, wrapped any
	}{
		{"shard", s.top.Router, s.top},
		{"replica", s.replicas[0].Store, s.replicas[0]},
		{"backend", s.backends[0].Flaky, s.backends[0]},
		{"remote", s.remotes[0].Store, s.remotes[0]},
		{"storage", s.files[0].FSStore, s.files[0]},
	}
	for _, p := range positions {
		bare, wrapped := reflect.TypeOf(p.bare), reflect.TypeOf(p.wrapped)
		if got, want := methodNames(wrapped), methodNames(bare); !slices.Equal(got, want) {
			t.Errorf("%s: probe methods %v, bare layer %v", p.name, got, want)
		}
		for name, capability := range capabilities {
			if got, want := wrapped.Implements(capability), bare.Implements(capability); got != want {
				t.Errorf("%s: probe implements %s = %v, bare layer %v", p.name, name, got, want)
			}
		}
	}
}

// TestProbesCountEveryBoundary writes and reads one key through the top
// of the stack with tracing on and off.
func TestProbesCountEveryBoundary(t *testing.T) {
	s, err := newStack(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boundaries := map[string]*boundary{
		"shard": &s.shardB, "replica": &s.replicaB, "backend": &s.backendB,
		"remote": &s.remoteB, "storage": &s.storageB,
	}
	if err := s.top.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	for name, b := range boundaries {
		if c := b.snapshot(); c.calls != [numOps]int64{} {
			t.Errorf("%s counted %v with tracing off", name, c.calls)
		}
	}
	s.tracing.Store(true)
	if err := s.top.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.top.Get("k"); err != nil {
		t.Fatal(err)
	}
	for name, b := range boundaries {
		c := b.snapshot()
		if c.calls[opPut] == 0 || c.busyNs[opPut] == 0 || c.wallNs == 0 {
			t.Errorf("%s: puts %d busy %dns wall %dns, want all > 0", name, c.calls[opPut], c.busyNs[opPut], c.wallNs)
		}
		if c.calls[opGet] == 0 {
			t.Errorf("%s: no get counted", name)
		}
	}
}
