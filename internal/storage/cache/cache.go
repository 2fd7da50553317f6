// Package cache is a size-bounded chunk cache layered between the
// content-addressed store and any PersistStore backend. Reads are
// served from memory when hot (read-through on miss); writes go to the
// backend first and then populate the cache (write-through), so the
// cache never holds bytes the backend has not accepted. Against a
// remote backend this is the snapshot tier: recovery and
// re-verification of hot chunks never leave the node.
//
// Chunk keys are content-addressed upstream, so cached values never go
// stale — the only invalidation paths are Delete and capacity eviction.
//
// Eviction is SIEVE (Zhang et al., NSDI '24, "SIEVE is Simpler than
// LRU"). Entries sit in insertion order, newest at the head; a hit only
// sets the entry's visited bit and never moves it. To make room, a hand
// walks from the tail toward the head, clearing visited bits, and evicts
// the first entry whose bit is already clear. A chunk read twice
// therefore outlives a one-pass scan of new chunks, where LRU would let
// the scan flush it: a restore reads more chunks than an L1 holds, and
// under LRU each restore evicted what the next restore of a hot job
// needed.
package cache

import (
	"container/list"
	"fmt"
	"sync"

	"moc/internal/obs"
	"moc/internal/storage"
)

// Stats counts cache activity since construction.
type Stats struct {
	// Hits / Misses count Gets served from memory vs. the backend.
	Hits, Misses int64
	// Coalesced counts the subset of Misses served by attaching to
	// another reader's in-flight backend fetch instead of issuing their
	// own (singleflight), so backend gets = Misses − Coalesced.
	Coalesced int64
	// HitBytes / MissBytes are the corresponding payload volumes.
	// MissBytes counts backend transfer volume, so a coalesced miss
	// contributes nothing — its bytes moved once, on the leader's fetch.
	HitBytes, MissBytes int64
	// Insertions counts entries admitted; Evictions entries pushed out
	// by the capacity bound (Delete removals are not evictions).
	Insertions, Evictions int64
	// Entries / Bytes are the current residency; Capacity the bound.
	Entries  int
	Bytes    int64
	Capacity int64
}

// HitRatio is Hits / (Hits + Misses), 0 when the cache is untouched.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

type entry struct {
	key     string
	data    []byte
	visited bool // set by a hit, cleared by the passing eviction hand
}

// Store is the caching PersistStore. It is safe for concurrent use.
type Store struct {
	inner    storage.PersistStore
	capacity int64

	mu    sync.Mutex
	ll    *list.List    // insertion order, front = newest
	hand  *list.Element // next eviction candidate; nil = start at the back
	index map[string]*list.Element
	bytes int64
	stats Stats
	// delGen increments on every Delete/Drop. A read-through miss fill
	// captures it before the backend fetch and is not admitted if it
	// moved — otherwise a Delete interleaving with the fetch would leave
	// the cache serving a key the backend no longer holds. Deletes are
	// rare (the GC sweep), so skipping the occasional unrelated fill is
	// the cheap conservative side.
	delGen uint64
	// flights coalesces concurrent misses of one key into a single inner
	// Get instead of a thundering herd of identical fetches. Its
	// coalesced count is the Coalesced stat.
	flights storage.Group[[]byte]
}

// New wraps a backend with a SIEVE cache bounded at capacityBytes.
func New(inner storage.PersistStore, capacityBytes int64) (*Store, error) {
	if inner == nil {
		return nil, fmt.Errorf("cache: nil backend")
	}
	if capacityBytes <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacityBytes)
	}
	c := &Store{
		inner:    inner,
		capacity: capacityBytes,
		ll:       list.New(),
		index:    make(map[string]*list.Element),
	}
	if obs.Enabled() {
		c.registerObs()
	}
	return c, nil
}

// Stats returns a copy of the counters plus current residency.
func (c *Store) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	// A coalesced miss is counted when it attaches to a flight (see read).
	st.Coalesced = c.flights.Coalesced()
	st.Misses += st.Coalesced
	st.Entries = len(c.index)
	st.Bytes = c.bytes
	st.Capacity = c.capacity
	return st
}

// insert admits a copy of a value and returns that copy, or nil when
// the value is not admitted. A new entry goes in at the head once
// eviction has made room for it; an overwrite replaces the entry's
// slice in place and marks it visited. Values larger than the whole
// cache are not admitted — they would evict everything for a single
// entry that can never be resident alongside anything else — and any
// older value of the key is dropped, so a mutable key never serves
// stale bytes.
func (c *Store) insert(key string, data []byte) []byte {
	el, ok := c.index[key]
	if int64(len(data)) > c.capacity {
		if ok {
			c.removeElement(el)
		}
		return nil
	}
	cp := append([]byte(nil), data...)
	if ok {
		e := el.Value.(*entry)
		c.bytes += int64(len(cp)) - int64(len(e.data))
		e.data = cp
		e.visited = true
	} else {
		for c.bytes+int64(len(cp)) > c.capacity {
			c.evict()
		}
		c.index[key] = c.ll.PushFront(&entry{key: key, data: cp})
		c.bytes += int64(len(cp))
		c.stats.Insertions++
	}
	for c.bytes > c.capacity {
		c.evict()
	}
	return cp
}

// evict removes one entry: the hand walks from its position toward the
// head (wrapping to the tail), clearing visited bits, and evicts the
// first entry whose bit was already clear. The caller guarantees the
// cache is not empty.
func (c *Store) evict() {
	el := c.hand
	if el == nil {
		el = c.ll.Back()
	}
	for e := el.Value.(*entry); e.visited; e = el.Value.(*entry) {
		e.visited = false
		if el = el.Prev(); el == nil {
			el = c.ll.Back()
		}
	}
	c.hand = el // removeElement steps it on toward the head
	c.removeElement(el)
	c.stats.Evictions++
}

// removeElement unlinks an entry, first stepping the hand past it so
// the hand never points at a removed element.
func (c *Store) removeElement(el *list.Element) {
	if c.hand == el {
		c.hand = el.Prev()
	}
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.index, e.key)
	c.bytes -= int64(len(e.data))
}

// hit serves key from memory if resident, marking it visited and
// counting the hit. The caller holds c.mu.
func (c *Store) hit(key string) ([]byte, bool) {
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	e.visited = true
	c.stats.Hits++
	c.stats.HitBytes += int64(len(e.data))
	return e.data, true
}

// Put implements storage.PersistStore: write-through. The backend write
// happens first; the cache is populated only on its success, and — like
// the Get miss fill — not when a Delete raced the backend write, so the
// cache never outlives the backend copy.
func (c *Store) Put(key string, data []byte) error {
	c.mu.Lock()
	gen := c.delGen
	c.mu.Unlock()
	if err := c.inner.Put(key, data); err != nil {
		return err
	}
	c.mu.Lock()
	if gen == c.delGen {
		c.insert(key, data)
	}
	c.mu.Unlock()
	return nil
}

// PutOwned implements storage.OwnedPutter: write-through without
// retention. The inner write goes through PutNoRetain (the backend's
// retention behavior is unknown) and the cache admission copies, so the
// caller's buffer is never referenced after return.
func (c *Store) PutOwned(key string, data []byte) error {
	c.mu.Lock()
	gen := c.delGen
	c.mu.Unlock()
	if err := storage.PutNoRetain(c.inner, key, data); err != nil {
		return err
	}
	c.mu.Lock()
	if gen == c.delGen {
		c.insert(key, data)
	}
	c.mu.Unlock()
	return nil
}

// GetView implements storage.Viewer: hits return the cached slice
// itself — no per-read copy, the win that makes warm recovery a pure
// verify-and-reassemble pass. Cached slices are replaced on update,
// never mutated (see insert), so outstanding views survive eviction and
// overwrite intact. Misses fall through to the backend, admit the
// value, and return the backend's copy. Concurrent misses of one key
// coalesce into a single backend fetch (see read).
func (c *Store) GetView(key string) ([]byte, error) {
	return c.read(key, true)
}

// Get implements storage.PersistStore: read-through. Hits are served
// from memory; misses fetch from the backend and admit the value.
// Concurrent misses of one key coalesce into a single backend fetch.
func (c *Store) Get(key string) ([]byte, error) {
	return c.read(key, false)
}

// read is the shared Get/GetView path. Hits serve from memory. Misses
// go through the flight group: the first miss of a key becomes the
// flight leader and fills it (see fill); concurrent misses of the same
// key attach to that flight and share its result, so N readers of one
// cold chunk cost one backend get. Cached and shared slices are
// immutable once published (insert replaces e.data, never mutates it):
// view readers hand them out directly (the do-not-modify contract), Get
// readers each take a private copy, outside the lock, so concurrent
// readers don't serialize behind each other's memcpy.
func (c *Store) read(key string, view bool) ([]byte, error) {
	c.mu.Lock()
	data, ok := c.hit(key)
	c.mu.Unlock()
	if !ok {
		var own []byte
		var err error
		data, _, err = c.flights.Do(key, func() (shared []byte, err error) {
			shared, own, err = c.fill(key)
			return shared, err
		})
		if err != nil {
			return nil, err
		}
		if own != nil {
			return own, nil
		}
	}
	if view {
		return data, nil
	}
	return append([]byte(nil), data...), nil
}

// fill is a flight leader's miss: fetch the key from the backend and
// admit it. shared is what the flight hands its waiters: the cache's
// own copy when the fill was admitted, else the backend's slice. own is
// the backend's slice when no waiter can see it, so the leader returns
// it without a copy; nil otherwise.
func (c *Store) fill(key string) (shared, own []byte, err error) {
	c.mu.Lock()
	// A flight that finished between the caller's miss and this one may
	// have filled the key already.
	if cached, ok := c.hit(key); ok {
		c.mu.Unlock()
		return cached, nil, nil
	}
	c.stats.Misses++
	gen := c.delGen
	c.mu.Unlock()

	data, err := c.inner.Get(key)
	if err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.MissBytes += int64(len(data))
	if gen != c.delGen {
		return data, nil, nil
	}
	if cached := c.insert(key, data); cached != nil {
		return cached, data, nil
	}
	return data, nil, nil
}

// GetCached returns the cached value as a view without consulting the
// backend: a hit counts (and marks the entry visited) exactly like
// GetView; a miss counts nothing and reports false — the caller decides
// what a miss means. The read tier uses this to tell an L2 promotion
// apart from a cold backend fetch.
func (c *Store) GetCached(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hit(key)
}

// Delete implements storage.PersistStore, dropping the cached copy
// before the backend delete so a failed backend delete can never leave
// the cache serving a key the caller asked to remove.
func (c *Store) Delete(key string) error {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.removeElement(el)
	}
	c.delGen++
	c.mu.Unlock()
	return c.inner.Delete(key)
}

// Invalidate drops the cached copy of key (if resident) without
// touching the backend, bumping the delete generation so an in-flight
// miss fill cannot resurrect it. The read tier uses it to propagate a
// chunk delete to every node's L1.
func (c *Store) Invalidate(key string) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.removeElement(el)
	}
	c.delGen++
	c.mu.Unlock()
}

// Keys implements storage.PersistStore, passing through to the backend
// (the cache holds a subset; only the backend knows the full key set).
func (c *Store) Keys(prefix string) ([]string, error) {
	return c.inner.Keys(prefix)
}

// Drop empties the cache without touching the backend — the cold-cache
// state after a node restart. Counters survive; residency goes to zero.
func (c *Store) Drop() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	c.hand = nil
	c.index = make(map[string]*list.Element)
	c.bytes = 0
	c.delGen++ // in-flight miss fills must not resurrect dropped entries
}

var (
	_ storage.PersistStore = (*Store)(nil)
	_ storage.OwnedPutter  = (*Store)(nil)
	_ storage.Viewer       = (*Store)(nil)
)
