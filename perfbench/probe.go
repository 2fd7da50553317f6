package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"moc/internal/storage"
	"moc/internal/storage/remote"
	"moc/internal/storage/replica"
	"moc/internal/storage/shard"
)

// Boundary probes time every call into one storage layer's PersistStore
// methods from outside the layer. Each probe embeds the concrete layer
// type, so every capability the layer has (zero-copy puts and views,
// repair, sharding, guards, chaos switches) is promoted unchanged and
// the probed stack is the same program as the bare one; probe_test.go
// asserts that method-set parity at every position.

// Operation kinds counted per boundary.
const (
	opPut = iota
	opGet
	opDelete
	opKeys
	numOps
)

// boundary accumulates the calls crossing one storage boundary. All the
// backends at one position of the stack share a boundary. Timing and
// counting run only while the stack's tracing switch is on, so the
// untraced run pays one atomic load per call.
type boundary struct {
	on      *atomic.Bool
	calls   [numOps]atomic.Int64
	busyNs  [numOps]atomic.Int64
	errs    atomic.Int64
	bytesIn atomic.Int64

	// wall is the time at least one call was in flight: busyNs sums
	// overlapping calls, wall counts their union once.
	mu       sync.Mutex
	inflight int
	since    time.Time
	wallNs   int64
}

// counters is a plain copy of a boundary's totals.
type counters struct {
	calls  [numOps]int64
	busyNs [numOps]int64
	errs   int64
	bytes  int64
	wallNs int64
}

func (b *boundary) snapshot() counters {
	var c counters
	for i := range c.calls {
		c.calls[i] = b.calls[i].Load()
		c.busyNs[i] = b.busyNs[i].Load()
	}
	c.errs = b.errs.Load()
	c.bytes = b.bytesIn.Load()
	b.mu.Lock()
	c.wallNs = b.wallNs
	b.mu.Unlock()
	return c
}

func (c counters) sub(o counters) counters {
	for i := range c.calls {
		c.calls[i] -= o.calls[i]
		c.busyNs[i] -= o.busyNs[i]
	}
	c.errs -= o.errs
	c.bytes -= o.bytes
	c.wallNs -= o.wallNs
	return c
}

// busy is the summed duration of every call, in seconds.
func (c counters) busy() float64 {
	var ns int64
	for _, v := range c.busyNs {
		ns += v
	}
	return float64(ns) / 1e9
}

func (b *boundary) record(op int, t0 time.Time, n int, err error) {
	if t0.IsZero() {
		return
	}
	now := time.Now()
	b.mu.Lock()
	if b.inflight--; b.inflight == 0 {
		b.wallNs += int64(now.Sub(b.since))
	}
	b.mu.Unlock()
	b.busyNs[op].Add(int64(now.Sub(t0)))
	b.calls[op].Add(1)
	if op == opPut && err == nil {
		b.bytesIn.Add(int64(n))
	}
	if err != nil {
		b.errs.Add(1)
	}
}

func (b *boundary) begin() time.Time {
	if !b.on.Load() {
		return time.Time{}
	}
	now := time.Now()
	b.mu.Lock()
	if b.inflight++; b.inflight == 1 {
		b.since = now
	}
	b.mu.Unlock()
	return now
}

func (b *boundary) put(data []byte, put func(string, []byte) error, key string) error {
	t0 := b.begin()
	err := put(key, data)
	b.record(opPut, t0, len(data), err)
	return err
}

func (b *boundary) get(get func(string) ([]byte, error), key string) ([]byte, error) {
	t0 := b.begin()
	data, err := get(key)
	b.record(opGet, t0, 0, err)
	return data, err
}

func (b *boundary) del(del func(string) error, key string) error {
	t0 := b.begin()
	err := del(key)
	b.record(opDelete, t0, 0, err)
	return err
}

func (b *boundary) keys(list func(string) ([]string, error), prefix string) ([]string, error) {
	t0 := b.begin()
	keys, err := list(prefix)
	b.record(opKeys, t0, 0, err)
	return keys, err
}

// topProbe is the fleet-facing boundary: the shard router. Besides
// timing it reports every successful manifest write to onCommit (the
// commit point of a checkpoint round, timed in the untraced run too)
// and counts fleet job-record traffic.
type topProbe struct {
	*shard.Router
	b          *boundary
	onCommit   func(key string, at time.Time)
	jobRecords atomic.Int64
}

const (
	manifestPrefix = "cas/manifests/"
	jobPrefix      = "fleet/jobs/"
)

// note counts job-record traffic and reports committed manifests.
func (p *topProbe) note(key string, put bool, err error) {
	if strings.HasPrefix(key, jobPrefix) && p.b.on.Load() {
		p.jobRecords.Add(1)
	}
	if put && err == nil && p.onCommit != nil && strings.HasPrefix(key, manifestPrefix) {
		p.onCommit(key, time.Now())
	}
}

func (p *topProbe) Put(key string, data []byte) error {
	err := p.b.put(data, p.Router.Put, key)
	p.note(key, true, err)
	return err
}

func (p *topProbe) PutOwned(key string, data []byte) error {
	err := p.b.put(data, p.Router.PutOwned, key)
	p.note(key, true, err)
	return err
}

func (p *topProbe) Get(key string) ([]byte, error) {
	p.note(key, false, nil)
	return p.b.get(p.Router.Get, key)
}

func (p *topProbe) GetView(key string) ([]byte, error) {
	p.note(key, false, nil)
	return p.b.get(p.Router.GetView, key)
}

func (p *topProbe) Delete(key string) error {
	p.note(key, false, nil)
	return p.b.del(p.Router.Delete, key)
}

func (p *topProbe) Keys(prefix string) ([]string, error) {
	p.note(prefix, false, nil)
	return p.b.keys(p.Router.Keys, prefix)
}

// replicaProbe times one shard's replica set.
type replicaProbe struct {
	*replica.Store
	b *boundary
}

func (p *replicaProbe) Put(key string, data []byte) error {
	return p.b.put(data, p.Store.Put, key)
}

func (p *replicaProbe) PutOwned(key string, data []byte) error {
	return p.b.put(data, p.Store.PutOwned, key)
}

func (p *replicaProbe) Get(key string) ([]byte, error) { return p.b.get(p.Store.Get, key) }

func (p *replicaProbe) GetView(key string) ([]byte, error) { return p.b.get(p.Store.GetView, key) }

func (p *replicaProbe) Delete(key string) error { return p.b.del(p.Store.Delete, key) }

func (p *replicaProbe) Keys(prefix string) ([]string, error) { return p.b.keys(p.Store.Keys, prefix) }

// flakyProbe counts what one replica backend returns to the replica
// set, including the errors of a backend the chaos schedule took down.
type flakyProbe struct {
	*replica.Flaky
	b *boundary
}

func (p *flakyProbe) Put(key string, data []byte) error {
	return p.b.put(data, p.Flaky.Put, key)
}

func (p *flakyProbe) PutOwned(key string, data []byte) error {
	return p.b.put(data, p.Flaky.PutOwned, key)
}

func (p *flakyProbe) Get(key string) ([]byte, error) { return p.b.get(p.Flaky.Get, key) }

func (p *flakyProbe) GetView(key string) ([]byte, error) { return p.b.get(p.Flaky.GetView, key) }

func (p *flakyProbe) Delete(key string) error { return p.b.del(p.Flaky.Delete, key) }

func (p *flakyProbe) Keys(prefix string) ([]string, error) { return p.b.keys(p.Flaky.Keys, prefix) }

// remoteProbe times one simulated object store (its sleeps, its
// MaxConcurrent queue, and the file I/O below it).
type remoteProbe struct {
	*remote.Store
	b *boundary
}

func (p *remoteProbe) Put(key string, data []byte) error {
	return p.b.put(data, p.Store.Put, key)
}

func (p *remoteProbe) PutOwned(key string, data []byte) error {
	return p.b.put(data, p.Store.PutOwned, key)
}

func (p *remoteProbe) Get(key string) ([]byte, error) { return p.b.get(p.Store.Get, key) }

func (p *remoteProbe) Delete(key string) error { return p.b.del(p.Store.Delete, key) }

func (p *remoteProbe) Keys(prefix string) ([]string, error) { return p.b.keys(p.Store.Keys, prefix) }

// fsProbe times one filesystem store.
type fsProbe struct {
	*storage.FSStore
	b *boundary
}

func (p *fsProbe) Put(key string, data []byte) error {
	return p.b.put(data, p.FSStore.Put, key)
}

func (p *fsProbe) PutOwned(key string, data []byte) error {
	return p.b.put(data, p.FSStore.PutOwned, key)
}

func (p *fsProbe) Get(key string) ([]byte, error) { return p.b.get(p.FSStore.Get, key) }

func (p *fsProbe) Delete(key string) error { return p.b.del(p.FSStore.Delete, key) }

func (p *fsProbe) Keys(prefix string) ([]string, error) { return p.b.keys(p.FSStore.Keys, prefix) }
