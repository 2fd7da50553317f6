package cache

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"moc/internal/storage"
)

// checkResidency verifies the list, the index, the byte count and the
// hand agree with each other and with the capacity bound.
func checkResidency(t *testing.T, c *Store) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int
	var sum int64
	handSeen := c.hand == nil
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if c.index[e.key] != el {
			t.Fatalf("list entry %q not indexed", e.key)
		}
		handSeen = handSeen || el == c.hand
		n++
		sum += int64(len(e.data))
	}
	if n != len(c.index) {
		t.Fatalf("list holds %d entries, index %d", n, len(c.index))
	}
	if sum != c.bytes || c.bytes > c.capacity {
		t.Fatalf("entries sum to %d bytes, counted %d, capacity %d", sum, c.bytes, c.capacity)
	}
	if !handSeen {
		t.Fatal("hand points at an element no longer in the list")
	}
}

func TestSieveHotKeysSurviveScan(t *testing.T) {
	// Four keys read twice outlive a one-pass scan of ten new keys
	// through an 8-slot cache. LRU would evict all four.
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 80)
	val := func(k string) []byte { return bytes.Repeat([]byte(k[:1]), 10) }
	for i := 0; i < 4; i++ {
		k := fmt.Sprintf("h%d", i)
		if err := c.Put(k, val(k)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("s%d", i)
		if err := inner.Put(k, val(k)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(k); err != nil {
			t.Fatal(err)
		}
	}
	base := c.Stats()
	for i := 0; i < 4; i++ {
		if _, err := c.Get(fmt.Sprintf("h%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Hits-base.Hits != 4 || st.Misses != base.Misses {
		t.Fatalf("hot keys after scan: %d hits, %d misses; want 4, 0",
			st.Hits-base.Hits, st.Misses-base.Misses)
	}
	checkResidency(t, c)
}

func TestSieveHandSurvivesRemovals(t *testing.T) {
	// Delete, Invalidate and Drop each remove the entry under the hand;
	// later insertions must keep the list, index and bound consistent.
	inner := storage.NewMemStore()
	c := mustNew(t, inner, 40)
	next := 0
	put := func() string {
		k := fmt.Sprintf("k%02d", next)
		next++
		if err := c.Put(k, bytes.Repeat([]byte{byte(next)}, 10)); err != nil {
			t.Fatal(err)
		}
		return k
	}
	// Fill, mark every entry visited, then insert once more so the
	// eviction walk leaves the hand parked on a resident entry.
	parkHand := func() string {
		for len(c.index) < 4 {
			put()
		}
		for k := range c.index {
			if _, ok := c.GetCached(k); !ok {
				t.Fatalf("%s not resident", k)
			}
		}
		put()
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.hand == nil {
			t.Fatal("eviction left no hand position")
		}
		return c.hand.Value.(*entry).key
	}
	removals := []struct {
		name   string
		remove func(key string)
	}{
		{"Delete", func(k string) {
			if err := c.Delete(k); err != nil {
				t.Fatal(err)
			}
		}},
		{"Invalidate", c.Invalidate},
		{"Drop", func(string) { c.Drop() }},
	}
	for _, r := range removals {
		k := parkHand()
		r.remove(k)
		checkResidency(t, c)
		for i := 0; i < 6; i++ {
			put()
			checkResidency(t, c)
		}
		if _, ok := c.index[k]; ok && r.name != "Drop" {
			t.Fatalf("%s: removed key %s still indexed", r.name, k)
		}
	}
}

func TestSieveConcurrentChurnKeepsInvariants(t *testing.T) {
	// Get/GetView/Put/Delete churn over a cache a quarter the size of
	// the working set, so eviction walks race removals under -race.
	inner := storage.NewMemStore()
	const keys, workers, iters = 24, 6, 500
	key := func(i int) string { return fmt.Sprintf("k%02d", i) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 8+i) }
	c := mustNew(t, inner, keys/4*20)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				n := (w*5 + i*11) % keys
				var err error
				switch i % 4 {
				case 0:
					err = c.Put(key(n), val(n))
				case 1:
					err = c.Delete(key(n))
				case 2:
					var v []byte
					if v, err = c.GetView(key(n)); err == nil && !bytes.Equal(v, val(n)) {
						t.Errorf("GetView(%s) corrupt", key(n))
					}
				default:
					var v []byte
					if v, err = c.Get(key(n)); err == nil && !bytes.Equal(v, val(n)) {
						t.Errorf("Get(%s) corrupt", key(n))
					}
				}
				if err != nil && !errors.Is(err, storage.ErrNotFound) {
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	checkResidency(t, c)
}
