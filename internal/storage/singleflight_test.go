package storage_test

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"moc/internal/simtime"
	"moc/internal/storage"
)

// waitFor polls cond until it holds or the test deadline is blown.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	if !simtime.Eventually(10*time.Second, time.Millisecond, cond) {
		t.Fatal("condition not reached in time")
	}
}

func TestGroupCoalescesConcurrentCalls(t *testing.T) {
	var g storage.Group[int]
	release := make(chan struct{})
	started := make(chan struct{})
	var calls atomic.Int64
	leaderFn := func() (int, error) {
		calls.Add(1)
		close(started)
		<-release
		return 7, nil
	}

	const waiters = 15
	type result struct {
		v      int
		shared bool
		err    error
	}
	results := make(chan result, waiters+1)
	go func() {
		v, shared, err := g.Do("k", leaderFn)
		results <- result{v, shared, err}
	}()
	<-started // the flight is registered; everyone below must attach
	for i := 0; i < waiters; i++ {
		go func() {
			v, shared, err := g.Do("k", func() (int, error) {
				calls.Add(1)
				return -1, nil
			})
			results <- result{v, shared, err}
		}()
	}
	waitFor(t, func() bool { return g.Coalesced() == waiters })
	close(release)

	leaders := 0
	for i := 0; i < waiters+1; i++ {
		r := <-results
		if r.err != nil || r.v != 7 {
			t.Fatalf("Do = %d, %v; want the leader's 7", r.v, r.err)
		}
		if !r.shared {
			leaders++
		}
	}
	if leaders != 1 || calls.Load() != 1 {
		t.Fatalf("leaders/calls = %d/%d, want 1/1", leaders, calls.Load())
	}
	if g.PeakWaiters() != waiters {
		t.Fatalf("PeakWaiters = %d, want %d", g.PeakWaiters(), waiters)
	}
	// The flight is gone: a later call runs its own fn.
	v, shared, err := g.Do("k", func() (int, error) { return 42, nil })
	if v != 42 || shared || err != nil {
		t.Fatalf("post-flight Do = %d, %v, %v", v, shared, err)
	}
}

func TestGroupSharesTheLeaderError(t *testing.T) {
	var g storage.Group[int]
	release := make(chan struct{})
	started := make(chan struct{})
	boom := errors.New("backend down")
	errs := make(chan error, 2)
	go func() {
		_, _, err := g.Do("k", func() (int, error) {
			close(started)
			<-release
			return 0, boom
		})
		errs <- err
	}()
	<-started
	go func() {
		_, _, err := g.Do("k", func() (int, error) { return 1, nil })
		errs <- err
	}()
	waitFor(t, func() bool { return g.Coalesced() == 1 })
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Fatalf("flight error = %v, want the leader's", err)
		}
	}
}

func TestGroupLeaderPanicFailsWaitersAndRepanics(t *testing.T) {
	var g storage.Group[int]
	release := make(chan struct{})
	started := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		g.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do("k", func() (int, error) { return 1, nil })
		waiterErr <- err
	}()
	waitFor(t, func() bool { return g.Coalesced() == 1 })
	close(release)
	if p := <-panicked; p != "boom" {
		t.Fatalf("leader panic swallowed: recovered %v", p)
	}
	if err := <-waiterErr; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("waiter error = %v, want the panic surfaced", err)
	}
	// The group is not wedged: the abandoned flight was completed.
	v, shared, err := g.Do("k", func() (int, error) { return 9, nil })
	if v != 9 || shared || err != nil {
		t.Fatalf("post-panic Do = %d, %v, %v", v, shared, err)
	}
}
