package main

import (
	"fmt"
	"sync"
	"time"
)

// commitLog pairs each checkpoint trigger with the write of its round's
// manifest at the top of the stack — the round's commit point. Its
// onCommit is the top probe's commit hook. Manifest rewrites by the
// garbage collector match no pending trigger and are ignored.
type commitLog struct {
	mu      sync.Mutex
	pending map[string]mark // manifest key → its round's trigger
	// last holds each writer's newest commit.
	last map[string]mark
	// latency and service are per-round samples in seconds: trigger to
	// commit, and commit(r) − max(trigger(r), commit(r−1)).
	latency, service []float64
}

// mark is a round's trigger or commit: when it happened, and whose
// round at which training iteration.
type mark struct {
	at          time.Time
	writer      string
	round, iter int
}

func newCommitLog() *commitLog {
	return &commitLog{pending: map[string]mark{}, last: map[string]mark{}}
}

func manifestKey(round int, writer string) string {
	return fmt.Sprintf("%s%06d.%s", manifestPrefix, round, writer)
}

// trigger records that writer's round was triggered now, at the given
// training iteration.
func (c *commitLog) trigger(writer string, round, iter int) {
	c.mu.Lock()
	c.pending[manifestKey(round, writer)] = mark{at: time.Now(), writer: writer, round: round, iter: iter}
	c.mu.Unlock()
}

func (c *commitLog) onCommit(key string, at time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.pending[key]
	if !ok {
		return
	}
	delete(c.pending, key)
	start := t.at
	if prev, ok := c.last[t.writer]; ok && prev.at.After(start) {
		start = prev.at
	}
	c.latency = append(c.latency, at.Sub(t.at).Seconds())
	c.service = append(c.service, at.Sub(start).Seconds())
	t.at = at
	c.last[t.writer] = t
}

// committedIter is the training iteration of writer's newest committed
// round (-1 when none).
func (c *commitLog) committedIter(writer string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.last[writer]; ok {
		return l.iter
	}
	return -1
}

// committedRound is writer's newest committed round (-1 when none).
func (c *commitLog) committedRound(writer string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.last[writer]; ok {
		return l.round
	}
	return -1
}

// outstanding counts triggered rounds whose manifest never landed.
func (c *commitLog) outstanding() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// reset drops the samples (not the pending triggers or commit history).
func (c *commitLog) reset() {
	c.mu.Lock()
	c.latency, c.service = nil, nil
	c.mu.Unlock()
}

// samples returns copies of the latency and service samples.
func (c *commitLog) samples() (latency, service []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]float64(nil), c.latency...), append([]float64(nil), c.service...)
}
