package main

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"moc"
	"moc/internal/simtime"
	"moc/internal/storage/remote"
)

// One chaos episode is chaosEpisode iterations of a fixed schedule,
// keyed by iteration offset from the episode's start:
//
//	[5, 25)  remote backend 0 straggles at 16× latency and 1/16 bandwidth
//	[10, 30) backend 3 (shard 1, replica 1) is down
//	[30, 40) shard 0's replica 1 is partitioned off
//	40       the last storage window has closed: the benchmark scrubs until
//	         no anti-entropy repair is owed (heal_s), then checks that
//	         both replicas of every shard hold the same keys
//	[42, 48) a preemption wave takes both jobs; at 48 their leases have
//	         expired and replacements resume them from their last commit
const (
	chaosEpisode     = 60
	chaosHealAt      = 40
	chaosJobs        = 2
	chaosBaseCadence = 2
	chaosScrubEvery  = 10
	// chaosEpisodesPerSecond scales --seconds to episodes.
	chaosEpisodesPerSecond = 0.2
	chaosMinEpisodes       = 3
	chaosLeaseTTL          = 30 * time.Second
	// healPassLimit bounds the post-window scrub loop.
	healPassLimit = 10
)

func chaosEvents(episodes int) []moc.ChaosEvent {
	var ev []moc.ChaosEvent
	for e := 0; e < episodes; e++ {
		b := e * chaosEpisode
		ev = append(ev,
			moc.StragglerWindowEvent(0, b+5, b+25),
			moc.BackendDownWindowEvent(3, b+10, b+30),
			moc.PartitionWindowEvent(1, b+30, b+40),
		)
		ev = append(ev, moc.PreemptionWaveEvents(b+42, 6, 0, 1)...)
	}
	return ev
}

// chaosJob is one fleet job of the chaos workload.
type chaosJob struct {
	id        string
	cfg       moc.Config
	sys       *moc.System
	round     int
	preempted bool
	// zombie is the preempted writer, kept until its replacement is in.
	zombie   *moc.System
	lostFrom int
}

type chaosFleet struct {
	*env
	clock *simtime.ManualClock
	jobs  []*chaosJob
	// retired accumulates the store counters of replaced systems; lost
	// counts the iterations preemptions made the jobs redo.
	retired casTotals
	lost    int
}

func (c *chaosFleet) close() error {
	var err error
	for _, j := range c.jobs {
		for _, sys := range []*moc.System{j.sys, j.zombie} {
			if sys == nil {
				continue
			}
			if cerr := sys.Close(); err == nil && !errors.Is(cerr, moc.ErrFleetFenced) {
				err = cerr
			}
		}
	}
	if cerr := c.env.close(); err == nil {
		err = cerr
	}
	return err
}

func setupChaos(r *run) (*chaosFleet, error) {
	clock := simtime.NewManualClock(time.Unix(1_700_000_000, 0))
	e, err := newEnv(r, moc.FleetConfig{Now: clock.Now, LeaseTTL: chaosLeaseTTL})
	if err != nil {
		return nil, err
	}
	e.fleet.SetCadence(moc.FleetCadenceConfig{DownStretch: 2, BacklogStretch: 1.5, MaxStretch: 8, Relax: 0.5})
	c := &chaosFleet{env: e, clock: clock}
	for i := 0; i < chaosJobs; i++ {
		j := &chaosJob{id: fmt.Sprintf("job-%d", i), cfg: pecConfig(r.seed + uint64(i))}
		sys, err := e.fleet.NewSystem(j.cfg, j.id)
		if err != nil {
			c.close()
			return nil, err
		}
		j.sys = sys
		c.jobs = append(c.jobs, j)
		if _, err := sys.RunTo(bootstrapIters); err != nil {
			c.close()
			return nil, err
		}
		if err := c.checkpoint(j); err != nil {
			c.close()
			return nil, err
		}
		if err := sys.FlushCheckpoints(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

func (c *chaosFleet) checkpoint(j *chaosJob) error {
	c.log.trigger(j.id, j.round, j.sys.Iteration())
	j.round++
	return j.sys.CheckpointNow()
}

// stragglerRemote exposes a remote backend to the chaos replayer, which
// only degrades it and clears the degradation.
type stragglerRemote struct{ *remote.Store }

func (s stragglerRemote) Metrics() moc.RemoteMetrics {
	m := s.Store.Metrics()
	return moc.RemoteMetrics{
		PutOps: m.PutOps, GetOps: m.GetOps, DeleteOps: m.DeleteOps, ListOps: m.ListOps,
		MultipartPuts: m.MultipartPuts, PartsUploaded: m.PartsUploaded,
		AbortedUploads: m.AbortedUploads,
		BytesUploaded:  m.BytesUploaded, BytesDownloaded: m.BytesDownloaded,
		ColdGets: m.ColdGets, RepeatGets: m.RepeatGets,
		ColdGetBytes: m.ColdGetBytes, RepeatGetBytes: m.RepeatGetBytes,
		Retries: m.Retries, InjectedFailures: m.InjectedFailures,
		DegradedOps: m.DegradedOps, SimSeconds: m.SimSeconds,
	}
}

// runChaos measures fleet jobs training through repeated chaos episodes.
func runChaos(r *run, traced bool) (float64, error) {
	c, err := timeSetup(r, traced, func() (*chaosFleet, error) { return setupChaos(r) },
		(*chaosFleet).close)
	if err != nil {
		return 0, err
	}
	defer c.close()
	episodes := max(chaosMinEpisodes, int(chaosEpisodesPerSecond*float64(r.seconds)))
	chaos, err := moc.NewChaos(moc.ChaosConfig{Events: chaosEvents(episodes), LatencyMult: 16, BandwidthMult: 16})
	if err != nil {
		return 0, err
	}
	chaos.BindRemote(0, stragglerRemote{c.st.remotes[0].Store})
	chaos.BindBackend(3, c.st.backends[3])
	chaos.BindReplica(c.st.replicas[0])
	var waveErr error
	chaos.OnPreempt(func(target int) {
		if err := c.preempt(r, c.jobs[target]); err != nil && waveErr == nil {
			waveErr = err
		}
	})
	chaos.OnRestore(func(target int) {
		if err := c.adopt(r, c.jobs[target]); err != nil && waveErr == nil {
			waveErr = err
		}
	})

	var t timings
	c.st.tracing.Store(traced)
	before, err := snapLayers(c.st, c.fleet)
	if err != nil {
		return 0, err
	}
	cas0 := casOf(c.systems()...)
	c.log.reset()
	steps := 0
	start := time.Now()
	for it := 1; it <= episodes*chaosEpisode; it++ {
		c.clock.Advance(time.Second)
		chaos.Advance(it)
		if waveErr != nil {
			return 0, waveErr
		}
		for _, j := range c.jobs {
			if j.preempted {
				continue
			}
			t0 := time.Now()
			_, err := j.sys.Step()
			t.steps = append(t.steps, time.Since(t0).Seconds())
			if r.op(err) != nil {
				return 0, err
			}
			steps++
			if j.sys.Iteration()%c.fleet.Cadence(chaosBaseCadence) == 0 {
				t0 := time.Now()
				err := c.checkpoint(j)
				t.stalls = append(t.stalls, time.Since(t0).Seconds())
				if r.op(err) != nil {
					return 0, err
				}
			}
		}
		switch {
		case it%chaosEpisode == chaosHealAt:
			if err := c.heal(r, &t); err != nil {
				return 0, err
			}
		case it%chaosScrubEvery == 0:
			t0 := time.Now()
			_, err := c.fleet.Scrub()
			t.scrubs = append(t.scrubs, time.Since(t0).Seconds())
			if r.op(err) != nil {
				return 0, err
			}
		}
		t.cadenceMax = max(t.cadenceMax, c.fleet.CadenceStretch())
	}
	for _, j := range c.jobs {
		if err := r.op(j.sys.FlushCheckpoints()); err != nil {
			return 0, err
		}
	}
	wall := time.Since(start).Seconds()
	c.st.tracing.Store(false)
	after, err := snapLayers(c.st, c.fleet)
	if err != nil {
		return 0, err
	}
	t.cas = casOf(c.systems()...).plus(c.retired).sub(cas0)
	t.lostIters = c.lost
	t.commits, t.service = c.log.samples()
	t.rounds = len(t.commits)
	t.ops = t.rounds
	r.check(c.log.outstanding() == 0, "%d triggered rounds never committed", c.log.outstanding())

	// PEC quality: one fault per job after the run; plt is the PLT that
	// fault costs, averaged over the jobs.
	var plt float64
	for _, j := range c.jobs {
		if err := r.op(j.sys.InjectFault()); err != nil {
			return 0, err
		}
		r.check(j.sys.Iteration() == c.log.committedIter(j.id),
			"%s fault restored iteration %d, last commit at %d", j.id, j.sys.Iteration(), c.log.committedIter(j.id))
		plt += j.sys.PLT()
	}
	plt /= float64(len(c.jobs))

	goodput := float64(steps-t.lostIters) / wall
	if !traced {
		r.set("ops_per_s", "1/s", goodput)
		r.set("op_p50_s", "s", quantile(t.commits, 0.5))
		r.set("op_p90_s", "s", quantile(t.commits, 0.9))
		r.set("bytes_per_op", "B", perOp(float64(t.cas.physical), t.rounds))
		r.set("plt", "ratio", plt)
		return goodput, nil
	}
	st, err := c.fleet.Stats()
	if err != nil {
		return 0, err
	}
	return goodput, r.reportLayers(before, after, t, st.ShardBalance)
}

func (c *chaosFleet) systems() []*moc.System {
	out := make([]*moc.System, len(c.jobs))
	for i, j := range c.jobs {
		out[i] = j.sys
	}
	return out
}

// preempt kills a job's writer. Its in-flight rounds land first, so the
// iterations lost are exactly those since its last trigger.
func (c *chaosFleet) preempt(r *run, j *chaosJob) error {
	if err := r.op(j.sys.FlushCheckpoints()); err != nil {
		return err
	}
	j.preempted = true
	j.zombie = j.sys
	j.lostFrom = j.sys.Iteration()
	return nil
}

// adopt lets the preempted job's lease expire, resumes it on a
// replacement from its last committed round, and checks that the zombie
// writer is fenced.
func (c *chaosFleet) adopt(r *run, j *chaosJob) error {
	c.clock.Advance(chaosLeaseTTL + time.Second)
	expired := slices.ContainsFunc(c.fleet.ExpiredJobs(), func(e moc.FleetJob) bool { return e.ID == j.id })
	r.check(expired, "%s lease not expired after preemption", j.id)
	cfg := j.cfg
	cfg.Resume = true
	sys, err := c.fleet.NewSystem(cfg, j.id)
	if err := r.op(err); err != nil {
		return err
	}
	c.retired = c.retired.add(j.zombie.Stats())
	committed := c.log.committedIter(j.id)
	r.check(sys.Iteration() == committed, "%s resumed at iteration %d, last commit at %d", j.id, sys.Iteration(), committed)
	c.lost += j.lostFrom - sys.Iteration()
	j.sys = sys
	j.round = c.log.committedRound(j.id) + 1
	j.preempted = false

	err = j.zombie.CheckpointNow()
	if err == nil {
		err = j.zombie.FlushCheckpoints()
	}
	r.check(errors.Is(err, moc.ErrFleetFenced), "%s zombie checkpoint: %v, want ErrFleetFenced", j.id, err)
	if cerr := j.zombie.Close(); cerr != nil && !errors.Is(cerr, moc.ErrFleetFenced) {
		r.op(cerr)
	}
	j.zombie = nil
	return nil
}

// heal drains every writer, scrubs until no anti-entropy repair is owed,
// and checks that both replicas of every shard hold the same keys.
func (c *chaosFleet) heal(r *run, t *timings) error {
	for _, j := range c.jobs {
		if err := r.op(j.sys.FlushCheckpoints()); err != nil {
			return err
		}
	}
	t0 := time.Now()
	passes := 0
	for ; ; passes++ {
		st, err := c.fleet.Stats()
		if err := r.op(err); err != nil {
			return err
		}
		if !st.SyncOwed {
			break
		}
		if passes == healPassLimit {
			return fmt.Errorf("repair still owed after %d scrub passes", passes)
		}
		if _, err := c.fleet.Scrub(); r.op(err) != nil {
			return err
		}
	}
	t.heals = append(t.heals, time.Since(t0).Seconds())
	t.healPasses = append(t.healPasses, float64(passes))
	for s := 0; s < numShards; s++ {
		a, errA := c.st.backends[s*replicasPerShard].Keys("")
		b, errB := c.st.backends[s*replicasPerShard+1].Keys("")
		r.check(errA == nil && errB == nil && slices.Equal(a, b),
			"shard %d replicas diverge after heal: %d vs %d keys (%v, %v)", s, len(a), len(b), errA, errB)
	}
	return nil
}
