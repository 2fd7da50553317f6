package fleet

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"moc/internal/fault"
	"moc/internal/simtime"
	"moc/internal/storage"
	"moc/internal/storage/cas"
	"moc/internal/storage/replica"
)

// fleetOverFlaky builds the standard repair fixture: a replicated
// backend whose second replica can fail and heal.
func fleetOverFlaky(t *testing.T, cfg Config) (*Service, *replica.Flaky) {
	t.Helper()
	flaky := replica.NewFlaky(storage.NewMemStore())
	rep, err := replica.New(storage.NewMemStore(), flaky)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, flaky
}

func TestScrubSchedulesSyncAfterBackendHeals(t *testing.T) {
	// The repair loop driven on a simulated timeline: the backend-loss
	// and heal iterations come from fault.Plan schedules, one scrub pass
	// per iteration, no manual Sync anywhere. The daemon must observe
	// the heal and converge the healed replica.
	svc, flaky := fleetOverFlaky(t, Config{})
	sess, err := svc.AcquireOrRegister("job", "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}

	failAt := fault.At(3)
	healAt := fault.At(7)
	const iters = 10
	var healedSeen, syncCopies int
	for it := 1; it <= iters; it++ {
		if failAt.IsFault(it) {
			flaky.Fail()
		}
		if healAt.IsFault(it) {
			flaky.Heal()
		}
		// One checkpoint round per iteration; while the replica is down
		// the writes land on the survivor only.
		if _, err := store.WriteRound(it, map[string][]byte{"w": blob(uint64(it), 4<<10)}); err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		rep, err := svc.Scrub()
		if err != nil {
			t.Fatalf("scrub at iteration %d: %v", it, err)
		}
		healedSeen += rep.Healed
		syncCopies += rep.SyncCopies
		if rep.Missing != 0 || rep.Corrupt != 0 {
			t.Fatalf("scrub findings at iteration %d: %+v", it, rep)
		}
	}
	if healedSeen == 0 {
		t.Fatal("scrub never observed the heal")
	}
	if syncCopies == 0 {
		t.Fatal("no anti-entropy copies despite a replica missing four rounds")
	}
	for i, err := range svc.rep.Health() {
		if err != nil {
			t.Fatalf("backend %d unhealthy after repair: %v", i, err)
		}
	}
	// The healed replica must now hold everything: with the first
	// replica gone, recovery still reads every round bit-identically.
	stats, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScrubPasses != iters || stats.SyncCopies != int64(syncCopies) || stats.HealsDetected == 0 {
		t.Fatalf("daemon counters: %+v", stats)
	}
}

func TestScrubCountsCorruptChunks(t *testing.T) {
	backend := storage.NewMemStore()
	svc, err := Open(backend, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := svc.AcquireOrRegister("job", "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteRound(0, map[string][]byte{"w": blob(3, 4<<10)}); err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChunksVerified == 0 || rep.Corrupt != 0 || rep.Missing != 0 {
		t.Fatalf("clean store scrub: %+v", rep)
	}

	// Flip a byte of one stored chunk behind the store's back.
	keys, err := backend.Keys(cas.ChunkPrefix)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := backend.Get(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	chunk[0] ^= 0xff
	if err := backend.Put(keys[0], chunk); err != nil {
		t.Fatal(err)
	}
	rep, err = svc.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corrupt != 1 {
		t.Fatalf("scrub missed the corrupted chunk: %+v", rep)
	}
	stats, err := svc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ScrubFindings == 0 {
		t.Fatalf("findings counter idle: %+v", stats)
	}
}

func TestBackgroundDaemonRepairsWithoutManualSync(t *testing.T) {
	// The acceptance shape, in-package: fail → write → heal, then only
	// the background goroutine runs until the replica converges.
	svc, flaky := fleetOverFlaky(t, Config{})
	defer svc.Close()
	sess, err := svc.AcquireOrRegister("job", "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := sess.Open(cas.Options{ChunkSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.WriteRound(0, map[string][]byte{"w": blob(1, 4<<10)}); err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	if err := svc.StartDaemon(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := svc.StartDaemon(time.Millisecond); err == nil {
		t.Fatal("double StartDaemon accepted")
	}
	flaky.Fail()
	if _, err := store.WriteRound(1, map[string][]byte{"w": blob(2, 4<<10)}); err != nil {
		t.Fatal(err)
	}
	// Let a probe observe the outage before healing — a blink shorter
	// than the probe interval is repaired too (the owed-sync flag), but
	// this test asserts the observed down→up transition specifically.
	waitStats := func(what string, pred func(Stats) bool) {
		t.Helper()
		var stats Stats
		ok := simtime.Eventually(10*time.Second, 2*time.Millisecond, func() bool {
			var err error
			stats, err = svc.Stats()
			if err != nil {
				t.Fatal(err)
			}
			return pred(stats)
		})
		if !ok {
			t.Fatalf("daemon never %s: %+v", what, stats)
		}
	}
	waitStats("observed the outage", func(st Stats) bool { return st.BackendsDown == 1 })
	flaky.Heal()

	waitStats("repaired after heal", func(st Stats) bool {
		return st.HealsDetected > 0 && st.SyncCopies > 0 && st.BackendsDown == 0
	})
	svc.StopDaemon()
	// StopDaemon joins the scrub goroutine, so the goroutine count must
	// fall back to (at most) the pre-StartDaemon baseline. Runtime
	// helper goroutines can retire a little late; poll instead of
	// asserting a single instantaneous reading.
	if ok := simtime.Eventually(10*time.Second, 2*time.Millisecond, func() bool {
		return runtime.NumGoroutine() <= baseline
	}); !ok {
		t.Fatalf("scrub goroutine leaked: %d goroutines, baseline %d", runtime.NumGoroutine(), baseline)
	}
	for i, err := range svc.rep.Health() {
		if err != nil {
			t.Fatalf("backend %d unhealthy after daemon repair: %v", i, err)
		}
	}
}

// unreadableStore lists every key but fails Gets of the ones in gone,
// like chunks deleted between a scrub's listing and its read.
type unreadableStore struct {
	*storage.MemStore
	gone map[string]bool
}

func (u *unreadableStore) Get(key string) ([]byte, error) {
	if u.gone[key] {
		return nil, storage.ErrNotFound
	}
	return u.MemStore.Get(key)
}

func TestVerifySweepRotationOrderAndForeignKey(t *testing.T) {
	// The sweep's reads fan out, but what it reports is what a
	// sequential sweep would: the rotating cursor, the count of chunks
	// read, the corrupt keys in sweep order, and a foreign key ending
	// the sweep after the keys before it.
	backend := &unreadableStore{MemStore: storage.NewMemStore(), gone: map[string]bool{}}
	svc, err := Open(backend, Config{ScrubChunksPerPass: 10})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 30; i++ {
		b := blob(uint64(i)+100, 64)
		k := cas.ChunkKey(cas.HashBytes(b))
		if err := backend.Put(k, b); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, i := range []int{3, 7, 12, 27} {
		if err := backend.Put(keys[i], blob(uint64(i)+900, 64)); err != nil {
			t.Fatal(err)
		}
	}
	backend.gone[keys[5]] = true

	sweep := func(wantVerified int, wantCorrupt []int, wantPos int) error {
		t.Helper()
		verified, corrupt, err := svc.verifySweep()
		var want []string
		for _, i := range wantCorrupt {
			want = append(want, keys[i])
		}
		if verified != wantVerified || !slices.Equal(corrupt, want) || svc.scrubPos != wantPos {
			t.Fatalf("sweep: verified %d corrupt %v pos %d; want %d %v %d",
				verified, corrupt, svc.scrubPos, wantVerified, want, wantPos)
		}
		return err
	}
	for _, pass := range []struct {
		verified int
		corrupt  []int
		pos      int
	}{{9, []int{3, 7}, 10}, {10, []int{12}, 20}} {
		if err := sweep(pass.verified, pass.corrupt, pass.pos); err != nil {
			t.Fatal(err)
		}
	}

	// A foreign key sorts last (index 30 of 31): a window starting at 25
	// verifies 25..29, then stops there with an error.
	foreign := cas.ChunkPrefix + "zz-foreign"
	if err := backend.Put(foreign, []byte("x")); err != nil {
		t.Fatal(err)
	}
	svc.scrubPos = 25
	if err := sweep(5, []int{27}, 4); err == nil || !strings.Contains(err.Error(), foreign) {
		t.Fatalf("foreign key error = %v", err)
	}
	if err := sweep(9, []int{7, 12}, 14); err != nil {
		t.Fatal(err)
	}
}
