package main

import (
	"fmt"

	"moc"
	"moc/internal/storage/remote"
)

// layerSnap is every counter the per-layer breakdown reads from the
// stack and the fleet, taken at the edges of the measured region.
type layerSnap struct {
	shard, replica, backend, remote, storage counters
	jobRecords                               int64
	rm                                       remote.Metrics
	repairs, slowSkips                       int64
	readTier                                 moc.ReadTierStats
	syncCopies                               int64
}

func snapLayers(s *stack, f *moc.Fleet) (layerSnap, error) {
	st, err := f.Stats()
	if err != nil {
		return layerSnap{}, fmt.Errorf("fleet stats: %w", err)
	}
	ls := layerSnap{
		shard:      s.shardB.snapshot(),
		replica:    s.replicaB.snapshot(),
		backend:    s.backendB.snapshot(),
		remote:     s.remoteB.snapshot(),
		storage:    s.storageB.snapshot(),
		jobRecords: s.top.jobRecords.Load(),
		rm:         s.remoteTotals(),
		syncCopies: st.SyncCopies,
	}
	ls.repairs, ls.slowSkips = s.replicaTotals()
	if st.ReadTier != nil {
		ls.readTier = *st.ReadTier
	}
	return ls, nil
}

// casTotals sums the checkpoint-store counters of a workload's systems.
type casTotals struct {
	hashed, unchanged, logical, physical int64
	skipped                              int
	snapshotWait                         float64
}

func casOf(systems ...*moc.System) casTotals {
	var t casTotals
	for _, sys := range systems {
		t = t.add(sys.Stats())
	}
	return t
}

func (t casTotals) add(st moc.Stats) casTotals {
	t.hashed += st.ChunksHashed
	t.unchanged += st.ModulesUnchanged
	t.logical += st.LogicalBytesPersisted
	t.physical += st.PhysicalBytesPersisted
	t.skipped += st.Skipped
	t.snapshotWait += st.SnapshotWaitSeconds
	return t
}

func (t casTotals) plus(o casTotals) casTotals {
	return casTotals{
		hashed:       t.hashed + o.hashed,
		unchanged:    t.unchanged + o.unchanged,
		logical:      t.logical + o.logical,
		physical:     t.physical + o.physical,
		skipped:      t.skipped + o.skipped,
		snapshotWait: t.snapshotWait + o.snapshotWait,
	}
}

func (t casTotals) sub(o casTotals) casTotals {
	return casTotals{
		hashed:       t.hashed - o.hashed,
		unchanged:    t.unchanged - o.unchanged,
		logical:      t.logical - o.logical,
		physical:     t.physical - o.physical,
		skipped:      t.skipped - o.skipped,
		snapshotWait: t.snapshotWait - o.snapshotWait,
	}
}

// timings are the workload-side measurements of one measured region.
// Slices hold one sample per event.
type timings struct {
	// ops is the workload's op count (checkpoint rounds, or restores)
	// every per-op metric divides by; rounds counts checkpoint rounds.
	ops, rounds int
	steps       []float64
	stalls      []float64
	commits     []float64
	// service is each round's persist service time:
	// commit(r) − max(trigger(r), commit(r−1)).
	service       []float64
	retains       []float64
	retainRemoved int
	scrubs        []float64
	healPasses    []float64
	heals         []float64
	cadenceMax    float64
	lostIters     int
	// maintWallNs is the shard boundary's busy time during inline
	// maintenance, when no round is in flight.
	maintWallNs int64
	cas         casTotals
}

// reportLayers sets every per-layer metric from the two snapshots and
// the workload's timings. Times and counts are per workload op unless
// the name says otherwise; a layer the workload never reaches reads 0.
func (r *run) reportLayers(before, after layerSnap, t timings, shardBalance float64) error {
	n := t.ops
	shard := after.shard.sub(before.shard)
	rep := after.replica.sub(before.replica)
	back := after.backend.sub(before.backend)
	rem := after.remote.sub(before.remote)
	fs := after.storage.sub(before.storage)
	rm := after.rm
	rm0 := before.rm

	r.set("train.step_s", "s", mean(t.steps))

	r.set("core.stall_s", "s", mean(t.stalls))
	r.set("core.drains", "count/op", perOp(float64(t.cas.skipped), n))
	r.set("core.snapshot_wait_s", "s/op", perOp(t.cas.snapshotWait, n))
	r.set("core.persist_service_s", "s", mean(t.service))
	r.set("core.commit_p50_s", "s", quantile(t.commits, 0.5))
	r.set("core.commit_p90_s", "s", quantile(t.commits, 0.9))

	r.set("cas.chunks_hashed", "count/op", perOp(float64(t.cas.hashed), n))
	r.set("cas.modules_unchanged", "count/op", perOp(float64(t.cas.unchanged), n))
	r.set("cas.logical_bytes", "B/op", perOp(float64(t.cas.logical), n))
	r.set("cas.physical_bytes", "B/op", perOp(float64(t.cas.physical), n))
	dedup := 0.0
	if t.cas.logical > 0 {
		dedup = 1 - float64(t.cas.physical)/float64(t.cas.logical)
	}
	r.set("cas.dedup_ratio", "ratio", dedup)
	// cas self time: commit latency not covered by the shard boundary
	// being busy outside maintenance (fleet fence, read tier, hashing
	// and queueing).
	self := 0.0
	if t.rounds > 0 {
		self = mean(t.commits) - float64(shard.wallNs-t.maintWallNs)/1e9/float64(t.rounds)
	}
	r.set("cas.self_s", "s", self)

	r.set("fleet.retain_s", "s", mean(t.retains))
	r.set("fleet.retain_removed", "count", perOp(float64(t.retainRemoved), len(t.retains)))
	r.set("fleet.scrub_s", "s", mean(t.scrubs))
	r.set("fleet.sync_copies", "count", float64(after.syncCopies-before.syncCopies))
	r.set("fleet.heal_passes", "count", mean(t.healPasses))
	r.set("fleet.heal_s", "s", mean(t.heals))
	r.set("fleet.lost_iters", "count", float64(t.lostIters))
	r.set("fleet.cadence_stretch_max", "ratio", t.cadenceMax)
	r.set("fleet.job_record_ops", "count/op", perOp(float64(after.jobRecords-before.jobRecords), n))

	rt, rt0 := after.readTier, before.readTier
	r.set("readserve.l1_hit_ratio", "ratio", hitRatio(rt.L1Hits-rt0.L1Hits, rt.L1Misses-rt0.L1Misses))
	r.set("readserve.l2_hit_ratio", "ratio", hitRatio(rt.L2Hits-rt0.L2Hits, rt.L2Misses-rt0.L2Misses))
	r.set("readserve.coalesced", "count/op", perOp(float64(rt.L1Coalesced-rt0.L1Coalesced+rt.L2Coalesced-rt0.L2Coalesced), n))
	r.set("readserve.backend_gets", "count/op", perOp(float64(rt.BackendGets-rt0.BackendGets), n))

	r.set("shard.put_calls", "count/op", perOp(float64(shard.calls[opPut]), n))
	r.set("shard.get_calls", "count/op", perOp(float64(shard.calls[opGet]), n))
	r.set("shard.delete_calls", "count/op", perOp(float64(shard.calls[opDelete]), n))
	r.set("shard.keys_calls", "count/op", perOp(float64(shard.calls[opKeys]), n))
	r.set("shard.busy_s", "s/op", perOp(shard.busy(), n))
	r.set("shard.wall_s", "s/op", perOp(float64(shard.wallNs)/1e9, n))
	r.set("shard.balance", "ratio", shardBalance)

	r.set("replica.busy_s", "s/op", perOp(rep.busy(), n))
	r.set("replica.repairs", "count", float64(after.repairs-before.repairs))
	r.set("replica.slow_skips", "count", float64(after.slowSkips-before.slowSkips))
	r.set("replica.errors", "count", float64(back.errs))

	sim := rm.SimSeconds - rm0.SimSeconds
	r.set("remote.sim_s", "s/op", perOp(sim, n))
	r.set("remote.busy_s", "s/op", perOp(rem.busy(), n))
	r.set("remote.wait_s", "s/op", perOp(rem.busy()-sim, n))
	r.set("remote.put_ops", "count/op", perOp(float64(rm.PutOps-rm0.PutOps), n))
	r.set("remote.get_ops", "count/op", perOp(float64(rm.GetOps-rm0.GetOps), n))
	r.set("remote.repeat_get_ops", "count/op", perOp(float64(rm.RepeatGets-rm0.RepeatGets), n))
	r.set("remote.delete_ops", "count/op", perOp(float64(rm.DeleteOps-rm0.DeleteOps), n))
	r.set("remote.list_ops", "count/op", perOp(float64(rm.ListOps-rm0.ListOps), n))
	r.set("remote.bytes_up", "B/op", perOp(float64(rm.BytesUploaded-rm0.BytesUploaded), n))
	r.set("remote.bytes_down", "B/op", perOp(float64(rm.BytesDownloaded-rm0.BytesDownloaded), n))
	r.set("remote.degraded_ops", "count/op", perOp(float64(rm.DegradedOps-rm0.DegradedOps), n))
	r.set("remote.retries", "count/op", perOp(float64(rm.Retries-rm0.Retries), n))

	r.set("storage.busy_s", "s/op", perOp(fs.busy(), n))
	r.set("storage.keys_s", "s/op", perOp(float64(fs.busyNs[opKeys])/1e9, n))
	r.set("storage.keys_calls", "count/op", perOp(float64(fs.calls[opKeys]), n))
	r.set("storage.bytes_written", "B/op", perOp(float64(fs.bytes), n))

	return r.reportModel(t, perOp(float64(t.cas.physical), t.rounds), perOp(sim, n), perOp(rem.busy(), n))
}

// reportModel sets the cost model's predictions beside what was
// measured (CounterPoint): the calibrated persist time of one round of
// the measured size against core.persist_service_s, and the remote's
// simulated seconds against its measured busy time. A pair whose ratio
// leaves [0.5, 2] is flagged with 1.
func (r *run) reportModel(t timings, bytesPerRound, sim, busy float64) error {
	persist := 0.0
	if bytesPerRound > 0 {
		rc := remoteConfig()
		rc.SleepScale = 0 // the prediction needs no real sleeping
		cal, err := moc.CalibratePersistTuned(rc, int64(bytesPerRound), moc.StoreTuning{})
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		persist = cal.PersistSeconds
	}
	r.set("model.persist_s", "s", persist)
	persistRatio := ratioOf(mean(t.service), persist)
	r.set("model.persist_ratio", "ratio", persistRatio)
	r.set("model.persist_flag", "bool", divergent(persistRatio))
	simRatio := ratioOf(busy, sim)
	r.set("model.remote_ratio", "ratio", simRatio)
	r.set("model.remote_flag", "bool", divergent(simRatio))
	return nil
}

func ratioOf(measured, predicted float64) float64 {
	if predicted <= 0 {
		return 0
	}
	return measured / predicted
}

// divergent flags a measured/predicted ratio outside [0.5, 2]; a pair
// with nothing to compare (ratio 0) is not flagged.
func divergent(ratio float64) float64 {
	if ratio == 0 || (ratio >= 0.5 && ratio <= 2) {
		return 0
	}
	return 1
}

func hitRatio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
