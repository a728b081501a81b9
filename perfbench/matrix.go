package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"stfm/internal/experiments"
	"stfm/internal/sim"
	"stfm/internal/workloads"
)

// matrixInstrs is matrix-fig9's per-thread instruction budget.
const matrixInstrs = 60_000

// matrixWork is matrix-fig9: the fig9 matrix (ten four-core mixes under
// the paper's five schedulers) through experiments.Runner.RunMatrix with
// checkpoint-fork planning, one RunMatrix call per mix so each mix forks
// at half its own FR-FCFS run length. Every iteration opens a fresh
// disk-backed baseline store, so the 17 distinct alone runs are computed
// once per iteration and every other slowdown denominator is a store hit.
type matrixWork struct {
	spec experiments.MatrixSpec
	fork []int64 // per-mix fork cycle
	seed uint64
}

// cellConfig is the config experiments builds for a cell, with the
// fork knobs that make it the cold twin of a fork-planned cell.
func (w *matrixWork) cellConfig(policy sim.PolicyKind, cores int, fork int64) sim.Config {
	cfg := sim.DefaultConfig(policy, cores)
	cfg.InstrTarget = matrixInstrs
	cfg.MinMisses = 150
	cfg.Seed = w.seed
	cfg.Channels = 0
	cfg.ForkAtCycle = fork
	if fork > 0 {
		cfg.WarmupPolicy = sim.PolicyFRFCFS
	}
	return cfg
}

// prepare fixes each mix's fork cycle from an untimed plain FR-FCFS run,
// the same run the fork planner's warm-up replays.
func (w *matrixWork) prepare(ctx context.Context, b *bench) error {
	spec, err := experiments.MatrixByID("fig9")
	if err != nil {
		return err
	}
	w.spec, w.seed = spec, b.seed
	for _, m := range spec.Mixes {
		res, err := sim.RunContext(ctx, w.cellConfig(sim.PolicyFRFCFS, len(m.Profiles), 0), m.Profiles)
		if err != nil {
			return fmt.Errorf("fork-point probe %s: %w", m.Name, err)
		}
		w.fork = append(w.fork, res.TotalCycles/2)
	}
	return nil
}

func (w *matrixWork) setup(ctx context.Context, b *bench, it *iter) (func() error, func(bool), error) {
	dir, err := b.tempDir("baseline-")
	if err != nil {
		return nil, nil, err
	}
	store, err := experiments.NewBaselineStore(dir)
	if err != nil {
		return nil, nil, err
	}
	var stfmU, stfmWS []float64
	run := func() error {
		for mi, mix := range w.spec.Mixes {
			_, end := b.spans.begin(it.root, 0, "experiments.RunMatrix "+mix.Name)
			t := time.Now()
			r := experiments.NewRunnerContext(ctx, experiments.Options{
				InstrTarget: matrixInstrs, MinMisses: 150, Seed: w.seed, Baseline: store, ForkWarmup: w.fork[mi],
			})
			out, err := r.RunMatrix([]workloads.Mix{mix}, w.spec.Policies, nil)
			d := time.Since(t)
			end()
			it.jobs = append(it.jobs, d)
			b.addOps(len(w.spec.Policies))
			if err != nil {
				return err
			}
			for _, p := range w.spec.Policies {
				wr := out[0][p]
				it.results = append(it.results, wr.Result)
				it.cycles += wr.Result.TotalCycles
				for _, th := range wr.Result.Threads {
					it.requests += th.DRAMReads + th.DRAMWrites
					it.instructions += th.Instructions
				}
				if p == sim.PolicySTFM {
					stfmU = append(stfmU, wr.Unfairness)
					stfmWS = append(stfmWS, wr.WeightedSpeedup)
				}
			}
		}
		return nil
	}
	teardown := func(ran bool) {
		if !ran {
			return
		}
		b.setPaper(mean(stfmU), mean(stfmWS))
		st := store.Stats()
		it.layer["experiments.alone_runs"] = float64(st.Misses)
		it.layer["experiments.baseline_hit_rate"] = ratio(st.Hits, st.Hits+st.Misses)
		it.layer["experiments.store_kb"] = dirKB(dir)
		it.layer["experiments.mix_ms_p50"] = median(msOf(it.jobs))
		it.layer["sim.cycles"] = float64(it.cycles)
		it.layer["cpu.instructions"] = float64(it.instructions)
		it.layer["memctrl.requests"] = float64(it.requests)
	}
	return run, teardown, nil
}

// check runs a sample of fork-planned cells cold, from cycle zero with
// the same fork-shaped config, and requires identical Results; a traced
// run also times checkpoint and restore at each mix's fork cycle.
func (w *matrixWork) check(ctx context.Context, b *bench) error {
	if len(b.iters) == 0 {
		return fmt.Errorf("no iterations")
	}
	cells := b.iters[0].results
	np := len(w.spec.Policies)
	for pi, p := range w.spec.Policies {
		mi := (int(w.seed) + 3*pi) % len(w.spec.Mixes)
		mix := w.spec.Mixes[mi]
		_, end := b.spans.begin(0, 1, "oracle cold "+string(p)+" "+mix.Name)
		want, err := sim.RunContext(ctx, w.cellConfig(p, len(mix.Profiles), w.fork[mi]), mix.Profiles)
		end()
		b.addOps(1)
		if err != nil {
			return fmt.Errorf("cold oracle %s/%s: %w", mix.Name, p, err)
		}
		if b.inject && pi == 0 {
			want.TotalCycles++
		}
		if !reflect.DeepEqual(cells[mi*np+pi], want) {
			b.fail("%s/%s: fork cell differs from its cold run", mix.Name, p)
		}
	}
	if b.traced {
		return w.timeCheckpoints(ctx, b)
	}
	return nil
}

// timeCheckpoints brings each mix's warm-up to its fork cycle, then
// times one System.Checkpoint there and one sim.Restore of it under STFM.
func (w *matrixWork) timeCheckpoints(ctx context.Context, b *bench) error {
	var ck, rs, kb []float64
	stfm := sim.PolicySTFM
	for mi, mix := range w.spec.Mixes {
		sys, err := sim.NewSystem(w.cellConfig(sim.PolicyFRFCFS, len(mix.Profiles), 0), mix.Profiles)
		if err != nil {
			return err
		}
		if _, err := sys.CheckpointAt(ctx, w.fork[mi]); err != nil {
			return fmt.Errorf("warm-up %s: %w", mix.Name, err)
		}
		_, end := b.spans.begin(0, 1, "sim.System.Checkpoint "+mix.Name)
		t := time.Now()
		data, err := sys.Checkpoint()
		ck = append(ck, float64(time.Since(t))/float64(time.Millisecond))
		end()
		if err != nil {
			return err
		}
		_, end = b.spans.begin(0, 1, "sim.Restore "+mix.Name)
		t = time.Now()
		_, err = sim.Restore(data, &sim.RestoreOptions{Policy: &stfm})
		rs = append(rs, float64(time.Since(t))/float64(time.Millisecond))
		end()
		if err != nil {
			return err
		}
		kb = append(kb, float64(len(data))/1024)
	}
	b.layer["sim.checkpoint_ms"] = median(ck)
	b.layer["sim.restore_ms"] = median(rs)
	b.layer["sim.checkpoint_kb"] = median(kb)
	return nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
