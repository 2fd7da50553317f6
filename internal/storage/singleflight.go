package storage

import (
	"fmt"
	"sync"
)

// Group coalesces concurrent calls for the same key into one execution
// (singleflight): the first caller becomes the flight leader and runs
// fn; every concurrent duplicate attaches to the leader's flight,
// blocks until it completes, and receives the same result — value and
// error alike. Values handed to waiters are the leader's value
// verbatim, so reference types must be treated read-only by every
// receiver or copied (the caches copy chunk payloads for Get callers;
// readserve.Pool documents its maps as shared read-only).
//
// A leader whose fn panics still completes its flight — the waiters
// receive an error instead of hanging on an abandoned channel — and
// then re-panics, so the failure is never silently swallowed.
type Group[V any] struct {
	mu      sync.Mutex
	flights map[string]*call[V]
	// coalesced counts calls served by another caller's flight; peak is
	// the most waiters any single flight collected.
	coalesced int64
	peak      int
}

// call is one in-flight execution. done is closed after val/err are
// published, which is the memory barrier the waiters read through.
type call[V any] struct {
	done    chan struct{}
	waiters int
	val     V
	err     error
}

// Do runs fn for key, coalescing concurrent duplicates. The bool
// reports whether this call attached to another caller's flight (its
// result is then shared, not private).
func (g *Group[V]) Do(key string, fn func() (V, error)) (V, bool, error) {
	g.mu.Lock()
	if g.flights == nil {
		g.flights = make(map[string]*call[V])
	}
	if c := g.flights[key]; c != nil {
		c.waiters++
		if c.waiters > g.peak {
			g.peak = c.waiters
		}
		g.coalesced++
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &call[V]{done: make(chan struct{})}
	g.flights[key] = c
	g.mu.Unlock()

	finished := false
	defer func() {
		if !finished {
			// fn panicked: fail the flight for the waiters before the
			// panic propagates out of the leader.
			c.err = fmt.Errorf("storage: in-flight fetch for %q panicked", key)
		}
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	finished = true
	return c.val, false, c.err
}

// Coalesced returns how many calls attached to another caller's flight.
func (g *Group[V]) Coalesced() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.coalesced
}

// PeakWaiters returns the most waiters one flight collected — the worst
// thundering herd the group has absorbed.
func (g *Group[V]) PeakWaiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.peak
}

// InFlight returns how many flights are running now.
func (g *Group[V]) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.flights)
}
