package readserve

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"moc/internal/obs"
	"moc/internal/storage"
	"moc/internal/storage/cas"
)

// Pool is the many-reader restore front-end: K concurrent restores of
// the same round (or the same module subset) share one cas recovery
// fan-out instead of issuing K. Layered over a Tier node the individual
// chunk fetches are additionally cached and coalesced, but the Pool
// pays off on its own too — the whole manifest walk, chunk fetch,
// verify, and reassemble pipeline runs once per concurrent cohort.
//
// Coalescing is per concurrent cohort only: a restore arriving after
// the flight completed runs again (and is then served by the cache
// tiers underneath). The returned maps are shared by every coalesced
// caller — treat payloads as read-only, or copy before mutating. The
// standard recovery path (core.Agent) copies module payloads into
// tensors, so it needs nothing extra.
type Pool struct {
	store *cas.Store
	g     storage.Group[map[string][]byte]

	restores  atomic.Int64
	coalesced atomic.Int64
}

// PoolStats counts restore activity.
type PoolStats struct {
	// Restores counts calls; Coalesced the subset served by another
	// caller's in-flight restore (cas reads = Restores − Coalesced).
	Restores, Coalesced int64
}

// NewPool wraps an opened cas store.
func NewPool(store *cas.Store) (*Pool, error) {
	if store == nil {
		return nil, fmt.Errorf("readserve: nil store")
	}
	p := &Pool{store: store}
	if obs.Enabled() {
		p.registerObs()
	}
	return p, nil
}

// ReadRound restores every module of the round (cas.Store.ReadRound),
// coalescing concurrent callers asking for the same round.
func (p *Pool) ReadRound(round int) (map[string][]byte, error) {
	return p.do(fmt.Sprintf("round/%06d", round), func() (map[string][]byte, error) {
		return p.store.ReadRound(round)
	})
}

// ReadModules restores only the named modules — the partial-expert
// (PEC) case: a reader pulling K experts of a base model fetches those
// experts' chunks and nothing else. Concurrent callers asking for the
// same subset coalesce; distinct subsets run independently.
func (p *Pool) ReadModules(round int, modules []string) (map[string][]byte, error) {
	names := append([]string(nil), modules...)
	sort.Strings(names)
	key := fmt.Sprintf("subset/%06d/%s", round, strings.Join(names, "\x00"))
	return p.do(key, func() (map[string][]byte, error) {
		return p.store.ReadModules(round, names)
	})
}

// Rounds lists the rounds visible to the underlying store.
func (p *Pool) Rounds() []int { return p.store.Rounds() }

func (p *Pool) do(key string, fn func() (map[string][]byte, error)) (map[string][]byte, error) {
	sp := obs.Start("readserve", "Restore").Attr("key", key)
	p.restores.Add(1)
	v, shared, err := p.g.Do(key, fn)
	if shared {
		p.coalesced.Add(1)
		sp.Attr("coalesced", "true")
	}
	if d := sp.End(); d > 0 {
		obsRestoreSeconds.Observe(obs.Seconds(d))
	}
	return v, err
}

// Stats returns the restore counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Restores: p.restores.Load(), Coalesced: p.coalesced.Load()}
}
