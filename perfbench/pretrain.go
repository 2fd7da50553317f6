package main

import (
	"time"

	"moc"
)

const (
	// pretrainRoundsPerSecond scales --seconds to checkpoint rounds.
	pretrainRoundsPerSecond = 4
	// stepsPerRound is the checkpoint cadence: CheckpointNow every
	// two training steps.
	stepsPerRound = 2
	// gcEvery runs Fleet.Retain and Fleet.Scrub inline every this
	// many rounds.
	gcEvery = 20
	// bootstrapIters is the training before the bootstrap round.
	bootstrapIters = 2
)

// pretrainJob is one set-up pretrain instance.
type pretrainJob struct {
	*env
	sys   *moc.System
	round int
}

func setupPretrain(r *run) (*pretrainJob, error) {
	e, err := newEnv(r, moc.FleetConfig{})
	if err != nil {
		return nil, err
	}
	sys, err := e.fleet.NewSystem(pecConfig(modelSeed), "pretrain")
	if err != nil {
		e.close()
		return nil, err
	}
	j := &pretrainJob{env: e, sys: sys}
	// The bootstrap round is a full checkpoint.
	if _, err := sys.RunTo(bootstrapIters); err != nil {
		j.close()
		return nil, err
	}
	if err := j.checkpoint(); err != nil {
		j.close()
		return nil, err
	}
	if err := sys.FlushCheckpoints(); err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

func (j *pretrainJob) close() error {
	err := j.sys.Close()
	if cerr := j.env.close(); err == nil {
		err = cerr
	}
	return err
}

// checkpoint triggers the next round, logging its trigger.
func (j *pretrainJob) checkpoint() error {
	j.log.trigger("pretrain", j.round, j.sys.Iteration())
	j.round++
	return j.sys.CheckpointNow()
}

// runPretrain measures one fleet job training with PEC and a checkpoint
// every two steps, with fleet GC and scrub inline every 20 rounds.
func runPretrain(r *run, traced bool) (float64, error) {
	j, err := timeSetup(r, traced, func() (*pretrainJob, error) { return setupPretrain(r) },
		(*pretrainJob).close)
	if err != nil {
		return 0, err
	}
	defer j.close()
	rounds := r.size(pretrainRoundsPerSecond)
	var t timings
	j.st.tracing.Store(traced)
	before, err := snapLayers(j.st, j.fleet)
	if err != nil {
		return 0, err
	}
	cas0 := casOf(j.sys)
	j.log.reset()

	// done holds the completion time of every gcEvery-round block; the
	// reported rate is the median block's.
	var done []float64
	start := time.Now()
	for i := 0; i < rounds; i++ {
		for k := 0; k < stepsPerRound; k++ {
			t0 := time.Now()
			_, err := j.sys.Step()
			t.steps = append(t.steps, time.Since(t0).Seconds())
			if r.op(err) != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		err := j.checkpoint()
		t.stalls = append(t.stalls, time.Since(t0).Seconds())
		if r.op(err) != nil {
			return 0, err
		}
		if (i+1)%gcEvery == 0 {
			if err := j.maintain(r, &t); err != nil {
				return 0, err
			}
			done = append(done, time.Since(start).Seconds())
		}
	}
	if err := r.op(j.sys.FlushCheckpoints()); err != nil {
		return 0, err
	}
	wall := time.Since(start).Seconds()
	j.st.tracing.Store(false)
	after, err := snapLayers(j.st, j.fleet)
	if err != nil {
		return 0, err
	}
	t.ops, t.rounds = rounds, rounds
	t.cas = casOf(j.sys).sub(cas0)
	t.commits, t.service = j.log.samples()
	r.check(len(t.commits) == rounds && j.log.outstanding() == 0,
		"%d of %d rounds committed, %d outstanding", len(t.commits), rounds, j.log.outstanding())

	// Output checks, untimed: every blob a recovery could read verifies
	// and a scrub finds nothing missing or corrupt.
	_, err = j.sys.VerifyStorage()
	r.check(err == nil, "VerifyStorage: %v", err)
	rep, err := j.fleet.Scrub()
	r.check(err == nil && rep.Missing == 0 && rep.Corrupt == 0,
		"scrub: missing %d corrupt %d err %v", rep.Missing, rep.Corrupt, err)
	plt, err := j.faultCycle(r)
	if err != nil {
		return 0, err
	}

	itPerS := float64(rounds*stepsPerRound) / wall
	if !traced {
		r.set("ops_per_s", "1/s", stepsPerRound*gcEvery*blockRate(done, len(done)))
		r.set("op_p50_s", "s", quantile(t.commits, 0.5))
		r.set("op_p90_s", "s", quantile(t.commits, 0.9))
		r.set("bytes_per_op", "B", perOp(float64(t.cas.physical), rounds))
		r.set("plt", "ratio", plt)
		return itPerS, nil
	}
	st, err := j.fleet.Stats()
	if err != nil {
		return 0, err
	}
	t.cadenceMax = st.CadenceStretch
	return itPerS, r.reportLayers(before, after, t, st.ShardBalance)
}

// faultCycle measures the PLT one fault costs, averaged over a full PEC
// rotation: at each of the rotation's positions it checkpoints, then
// fails each node once, checking every restore lands on the last
// committed iteration. A single fault's PLT depends on which node fails
// and how stale that node's experts happen to be; the average does not.
func (j *pretrainJob) faultCycle(r *run) (float64, error) {
	cfg := pecConfig(modelSeed)
	positions := cfg.Experts / cfg.KPersist
	before := j.sys.PLT()
	faults := 0
	for p := 0; p < positions; p++ {
		if _, err := j.sys.RunTo(j.sys.Iteration() + stepsPerRound); r.op(err) != nil {
			return 0, err
		}
		if err := r.op(j.checkpoint()); err != nil {
			return 0, err
		}
		for node := 0; node < cfg.Nodes; node++ {
			if err := r.op(j.sys.InjectFault()); err != nil {
				return 0, err
			}
			faults++
			r.check(j.sys.Iteration() == j.log.committedIter("pretrain"),
				"fault restored iteration %d, last commit at %d", j.sys.Iteration(), j.log.committedIter("pretrain"))
		}
	}
	return (j.sys.PLT() - before) / float64(faults), nil
}

// maintain drains the persist pipeline, then runs the fleet GC and a
// scrub pass inline, as a training loop with periodic maintenance does.
func (j *pretrainJob) maintain(r *run, t *timings) error {
	if err := r.op(j.sys.FlushCheckpoints()); err != nil {
		return err
	}
	shard0 := j.st.shardB.snapshot()
	defer func() { t.maintWallNs += j.st.shardB.snapshot().sub(shard0).wallNs }()
	t0 := time.Now()
	removed, err := j.fleet.Retain()
	t.retains = append(t.retains, time.Since(t0).Seconds())
	t.retainRemoved += removed
	if err := r.op(err); err != nil {
		return err
	}
	t0 = time.Now()
	rep, err := j.fleet.Scrub()
	t.scrubs = append(t.scrubs, time.Since(t0).Seconds())
	if err := r.op(err); err != nil {
		return err
	}
	r.check(rep.Missing == 0 && rep.Corrupt == 0, "scrub after GC: missing %d corrupt %d", rep.Missing, rep.Corrupt)
	return nil
}
