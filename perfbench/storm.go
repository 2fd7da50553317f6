package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"moc"
)

const (
	// stormForks is the number of frozen-expert fine-tune forks of the
	// base job; the storm draws over base + forks.
	stormForks = 5
	// stormClients is the closed-loop client count (one per vCPU of
	// the reference host).
	stormClients = 2
	// stormRestoresPerSecond scales --seconds to restores.
	stormRestoresPerSecond = 40
	// stormZipfS is the Zipf exponent of the job draw.
	stormZipfS = 1.1
	// evalSamples is the fixed held-out sample the bit-identity check
	// evaluates.
	evalSamples = 32
	// rateBlocks is the number of blocks ops_per_s takes the median of.
	rateBlocks = 10
)

// stormJob is one job of the restore storm with its own lock (a System
// is not safe for concurrent use) and its last committed iteration.
type stormJob struct {
	mu        sync.Mutex
	id        string
	sys       *moc.System
	committed int
}

type stormFleet struct {
	*env
	jobs []*stormJob
}

func (s *stormFleet) close() error {
	var err error
	for _, j := range s.jobs {
		if cerr := j.sys.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := s.env.close(); err == nil {
		err = cerr
	}
	return err
}

// setupStorm trains a base job and its frozen-expert forks on the fleet,
// each with a few PEC rounds so restores have stale experts to recover.
func setupStorm(r *run) (*stormFleet, error) {
	e, err := newEnv(r, moc.FleetConfig{})
	if err != nil {
		return nil, err
	}
	s := &stormFleet{env: e}
	base, err := e.fleet.NewSystem(pecConfig(modelSeed), "base")
	if err != nil {
		e.close()
		return nil, err
	}
	s.jobs = append(s.jobs, &stormJob{id: "base", sys: base})
	if err := s.train(s.jobs[0], 3); err != nil {
		s.close()
		return nil, err
	}
	fork := pecConfig(modelSeed)
	fork.FreezeExperts = true
	for i := 0; i < stormForks; i++ {
		id := fmt.Sprintf("ft-%d", i)
		corpus := moc.NewCorpus(id, fork.Vocab, uint64(100+i))
		sys, err := base.ForkOnFleet(e.fleet, id, corpus, fork)
		if err != nil {
			s.close()
			return nil, err
		}
		j := &stormJob{id: id, sys: sys}
		s.jobs = append(s.jobs, j)
		if err := s.train(j, 2); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// train runs rounds checkpoint rounds of stepsPerRound steps each and
// waits for them to commit.
func (s *stormFleet) train(j *stormJob, rounds int) error {
	for i := 0; i < rounds; i++ {
		if _, err := j.sys.RunTo(j.sys.Iteration() + stepsPerRound); err != nil {
			return err
		}
		if err := j.sys.CheckpointNow(); err != nil {
			return err
		}
	}
	j.committed = j.sys.Iteration()
	return j.sys.FlushCheckpoints()
}

// runRestoreStorm measures closed-loop clients restoring Zipf-drawn
// jobs of a fleet whose forks share their base's chunks.
func runRestoreStorm(r *run, traced bool) (float64, error) {
	s, err := timeSetup(r, traced, func() (*stormFleet, error) { return setupStorm(r) },
		(*stormFleet).close)
	if err != nil {
		return 0, err
	}
	defer s.close()
	total := r.size(stormRestoresPerSecond)
	s.st.tracing.Store(traced)
	before, err := snapLayers(s.st, s.fleet)
	if err != nil {
		return 0, err
	}
	rm0 := s.st.remoteTotals()

	var (
		mu        sync.Mutex
		latencies []float64
		done      []float64
		failures  []error
		wg        sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < stormClients; c++ {
		n := total / stormClients
		if c < total%stormClients {
			n++
		}
		draws := stormDraws(r.seed, c, len(s.jobs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				j := s.jobs[draws.Uint64()]
				j.mu.Lock()
				t0 := time.Now()
				err := j.sys.InjectFault()
				d := time.Since(t0).Seconds()
				if err == nil && j.sys.Iteration() != j.committed {
					err = fmt.Errorf("%s restored iteration %d, last commit at %d", j.id, j.sys.Iteration(), j.committed)
				}
				j.mu.Unlock()
				mu.Lock()
				latencies = append(latencies, d)
				done = append(done, time.Since(start).Seconds())
				if err != nil {
					failures = append(failures, fmt.Errorf("restore %s: %w", j.id, err))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	s.st.tracing.Store(false)
	after, err := snapLayers(s.st, s.fleet)
	if err != nil {
		return 0, err
	}
	rm := s.st.remoteTotals()
	for i := 0; i < total; i++ {
		if i < len(failures) {
			r.op(failures[i])
		} else {
			r.op(nil)
		}
	}
	if err := s.checkBitIdentical(r); err != nil {
		return 0, err
	}
	// Every job has now failed each node at least once; repeated faults
	// lose nothing new, so each job's PLT has reached its final value.
	var plt float64
	for _, j := range s.jobs {
		plt += j.sys.PLT()
	}
	plt /= float64(len(s.jobs))

	perS := float64(total) / wall
	if !traced {
		r.set("ops_per_s", "1/s", blockRate(done, rateBlocks))
		r.set("op_p50_s", "s", quantile(latencies, 0.5))
		r.set("op_p90_s", "s", quantile(latencies, 0.9))
		r.set("bytes_per_op", "B", perOp(float64(rm.BytesDownloaded-rm0.BytesDownloaded), total))
		r.set("plt", "ratio", plt)
		return perS, nil
	}
	st, err := s.fleet.Stats()
	if err != nil {
		return 0, err
	}
	t := timings{ops: total, cadenceMax: st.CadenceStretch}
	return perS, r.reportLayers(before, after, t, st.ShardBalance)
}

// stormDraws is client c's job-index stream: Zipf over jobs indices,
// seeded from the benchmark seed.
func stormDraws(seed uint64, c, jobs int) *rand.Zipf {
	src := rand.New(rand.NewSource(int64(seed)*stormClients + int64(c)))
	return rand.NewZipf(src, stormZipfS, 1, uint64(jobs-1))
}

// checkBitIdentical restores every job twice with the same failed node
// (faults rotate over the two nodes) and requires bit-identical models,
// compared by the evaluation loss on a fixed held-out sample.
func (s *stormFleet) checkBitIdentical(r *run) error {
	for _, j := range s.jobs {
		var loss [2]float64
		for k := 0; k < 3; k++ {
			if err := r.op(j.sys.InjectFault()); err != nil {
				return err
			}
			if k == 1 {
				continue
			}
			l, _, err := j.sys.Evaluate(evalSamples)
			if err := r.op(err); err != nil {
				return err
			}
			loss[k/2] = l
		}
		r.check(math.Float64bits(loss[0]) == math.Float64bits(loss[1]),
			"%s: restores of one failed node differ: loss %v vs %v", j.id, loss[0], loss[1])
	}
	return nil
}
