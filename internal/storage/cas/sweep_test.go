package cas

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"moc/internal/storage"
)

// sweepProbe wraps a MemStore to observe the refcount GC's sweep: it
// counts chunk reads and successful chunk deletes, and can fail the
// failDelete-th chunk Delete (1-based; 0 never fails) the way a lost
// response does: the chunk is gone, but the caller sees an error.
type sweepProbe struct {
	*storage.MemStore
	failDelete int64
	deletes    atomic.Int64
	deleted    atomic.Int64
	chunkGets  atomic.Int64
}

func (p *sweepProbe) Get(key string) ([]byte, error) {
	if strings.HasPrefix(key, chunkPrefix) {
		p.chunkGets.Add(1)
	}
	return p.MemStore.Get(key)
}

func (p *sweepProbe) GetView(key string) ([]byte, error) {
	if strings.HasPrefix(key, chunkPrefix) {
		p.chunkGets.Add(1)
	}
	return p.MemStore.GetView(key)
}

func (p *sweepProbe) Delete(key string) error {
	if !strings.HasPrefix(key, chunkPrefix) {
		return p.MemStore.Delete(key)
	}
	if err := p.MemStore.Delete(key); err != nil {
		return err
	}
	if p.deletes.Add(1) == p.failDelete {
		return fmt.Errorf("backend lost")
	}
	p.deleted.Add(1)
	return nil
}

// writeChurn commits rounds 0..rounds-1 of one module whose content is
// unique per round, so keeping only the newest round leaves every older
// round's chunks dead. It returns the payloads by round.
func writeChurn(t *testing.T, s *Store, rounds int) [][]byte {
	t.Helper()
	out := make([][]byte, rounds)
	for r := range out {
		out[r] = payload(byte(10*r+1), 256)
		if _, err := s.WriteRound(r, map[string][]byte{"m": out[r], "stable": payload(7, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestRetainSweepFailureNeverOverclaims(t *testing.T) {
	// A backend that loses the reply to its 5th chunk delete: Retain must surface the
	// error with the partial stats, and the concurrent sweep must never
	// leave the presence index claiming a chunk the backend lacks — else
	// the next WriteRound would dedup against it and commit an
	// unrecoverable round.
	probe := &sweepProbe{MemStore: storage.NewMemStore(), failDelete: 5}
	s, err := Open(probe, Options{ChunkSize: 32, Writer: "w", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	payloads := writeChurn(t, s, rounds)
	var hashes []Hash
	for _, ms := range s.manifests {
		for _, m := range ms {
			for _, e := range m.Modules {
				for _, c := range e.Chunks {
					hashes = append(hashes, c.Hash)
				}
			}
		}
	}

	st, err := s.Retain(func(round int, _ string) bool { return round == rounds-1 }, rounds-1)
	if err == nil || !strings.Contains(err.Error(), "backend lost") {
		t.Fatalf("Retain with a failing delete returned %v", err)
	}
	if got := probe.deleted.Load(); int64(st.ChunksDeleted) != got {
		t.Fatalf("partial stats: ChunksDeleted %d, backend deleted %d", st.ChunksDeleted, got)
	}
	if st.BytesFreed != int64(st.ChunksDeleted)*32 {
		t.Fatalf("partial stats: BytesFreed %d for %d 32-byte chunks", st.BytesFreed, st.ChunksDeleted)
	}
	for _, h := range hashes {
		if _, err := probe.MemStore.Get(ChunkKey(h)); err != nil && s.present.Has(h) {
			t.Fatalf("presence index claims swept chunk %s", h)
		}
	}

	// Rewriting every old payload must re-put whatever the sweep took.
	mods := map[string][]byte{}
	for r, p := range payloads {
		mods[fmt.Sprintf("m%d", r)] = p
	}
	if _, err := s.WriteRound(rounds, mods); err != nil {
		t.Fatal(err)
	}
	for name, want := range mods {
		got, err := s.ReadModule(rounds, name)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s after failed sweep: %v", name, err)
		}
	}
	rep, err := s.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Missing) != 0 {
		t.Fatalf("audit after failed sweep: %d referenced chunks missing", len(rep.Missing))
	}
}

func TestRetainSweepReadsNoDroppedChunks(t *testing.T) {
	// Every dead chunk comes from an entry the GC dropped, so its size is
	// in a loaded manifest: the sweep must delete without downloading.
	probe := &sweepProbe{MemStore: storage.NewMemStore()}
	s, err := Open(probe, Options{ChunkSize: 32, Writer: "w", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	writeChurn(t, s, rounds)
	probe.chunkGets.Store(0)
	st, err := s.Retain(func(round int, _ string) bool { return round == rounds-1 }, rounds-1)
	if err != nil {
		t.Fatal(err)
	}
	// Five superseded 256-byte payloads of 8 chunks each.
	if st.ChunksDeleted != (rounds-1)*8 || st.BytesFreed != (rounds-1)*256 {
		t.Fatalf("sweep stats: %+v", st)
	}
	if n := probe.chunkGets.Load(); n != 0 {
		t.Fatalf("sweep read %d chunks", n)
	}
}

func TestRetainBytesFreedCountsOrphans(t *testing.T) {
	// An orphan chunk no manifest ever referenced (a crashed writer's
	// leftover) has no recorded size; BytesFreed must still be exact.
	s, backend := testStore(t, Options{ChunkSize: 32, Writer: "w"})
	if _, err := s.WriteRound(0, map[string][]byte{"m": payload(1, 64)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteRound(1, map[string][]byte{"m": payload(2, 64)}); err != nil {
		t.Fatal(err)
	}
	orphan := payload(9, 10)
	if err := backend.Put(ChunkKey(HashBytes(orphan)), orphan); err != nil {
		t.Fatal(err)
	}
	st, err := s.Retain(func(round int, _ string) bool { return round == 1 }, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksDeleted != 3 || st.BytesFreed != 64+10 {
		t.Fatalf("sweep stats: %+v", st)
	}
}

func TestLoadManifestsOrderAndFirstError(t *testing.T) {
	// The manifest fetch fans out, but results keep (round, writer)
	// order and a failure reports the first bad key in that order.
	s, backend := testStore(t, Options{ChunkSize: 32, Writer: "w"})
	const rounds = 3 * DefaultReadWorkers
	for r := 0; r < rounds; r++ {
		if _, err := s.WriteRound(r, map[string][]byte{"m": payload(byte(r), 40)}); err != nil {
			t.Fatal(err)
		}
	}
	ms, err := loadManifests(backend)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != rounds {
		t.Fatalf("loaded %d manifests, want %d", len(ms), rounds)
	}
	for i, m := range ms {
		if m.Round != i {
			t.Fatalf("manifest %d is round %d", i, m.Round)
		}
	}
	for _, r := range []int{rounds - 2, 4} {
		if err := backend.Put(manifestKey(r, "w"), []byte("garbage")); err != nil {
			t.Fatal(err)
		}
	}
	_, err = loadManifests(backend)
	if err == nil || !strings.Contains(err.Error(), manifestKey(4, "w")) {
		t.Fatalf("first error = %v, want one naming %s", err, manifestKey(4, "w"))
	}
}
