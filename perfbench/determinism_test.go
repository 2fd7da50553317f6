package main

import (
	"slices"
	"testing"
)

// runSmall runs one pass of a workload with a fixed, small op count.
func runSmall(t *testing.T, workload func(*run, bool) (float64, error), seed uint64, ops int, traced bool) map[string]metric {
	t.Helper()
	r := &run{seed: seed, seconds: 1, dir: t.TempDir(), ops: ops, metrics: map[string]metric{}}
	if _, err := workload(r, traced); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d of %d operations failed", r.failed, r.attempted)
	}
	return r.metrics
}

// TestPretrainDeterministic checks that one seed reproduces the exact
// counters of a pretrain run: bytes per round, PLT, hashed chunks, and
// the remote cost model's op counts and simulated seconds.
func TestPretrainDeterministic(t *testing.T) {
	const seed, rounds = 7, 2 * gcEvery
	exact := map[bool][]string{
		false: {"bytes_per_op", "plt"},
		true: {"cas.chunks_hashed", "cas.physical_bytes", "remote.put_ops", "remote.get_ops",
			"remote.delete_ops", "remote.list_ops", "remote.bytes_up", "remote.sim_s"},
	}
	for _, traced := range []bool{false, true} {
		a := runSmall(t, runPretrain, seed, rounds, traced)
		b := runSmall(t, runPretrain, seed, rounds, traced)
		for _, name := range exact[traced] {
			if a[name].Value != b[name].Value {
				t.Errorf("%s differs between runs of seed %d: %v vs %v", name, seed, a[name].Value, b[name].Value)
			}
			if a[name].Value == 0 {
				t.Errorf("%s is 0", name)
			}
		}
	}
}

func draws(seed uint64, client, n int) []uint64 {
	z := stormDraws(seed, client, stormForks+1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

// TestStormDrawsFollowSeed checks that the restore-storm job draws
// repeat for one seed and change with the seed and the client.
func TestStormDrawsFollowSeed(t *testing.T) {
	const n = 64
	if !slices.Equal(draws(1, 0, n), draws(1, 0, n)) {
		t.Error("one seed gave two draw sequences")
	}
	if slices.Equal(draws(1, 0, n), draws(2, 0, n)) {
		t.Error("seeds 1 and 2 gave the same draw sequence")
	}
	if slices.Equal(draws(1, 0, n), draws(1, 1, n)) {
		t.Error("both clients of seed 1 draw the same sequence")
	}
}
