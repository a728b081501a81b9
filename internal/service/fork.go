package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"stfm/internal/experiments"
	"stfm/internal/sim"
)

// ErrNoSuchJob reports a fork request against an unknown parent (HTTP
// 404).
var ErrNoSuchJob = errors.New("service: no such job")

// ForkRequest is the POST /v1/jobs/{id}/fork body: fork the parent
// job's simulation at a warm-up cycle under one or more target
// policies. Each target becomes a regular job whose configuration is
// the parent's with Policy, ForkAtCycle, and WarmupPolicy set — fully
// content-addressed (the fork knobs enter the fingerprint), so repeat
// forks are cache hits, and cold-runnable after a restart (a recovered
// fork child replays its warm-up inline via sim.Config.ForkAtCycle).
// Children created in one request share a single in-memory warm-up
// snapshot: the first to execute runs the parent's policy to AtCycle
// through sim.System.CheckpointAt, and every sibling restores from that
// snapshot with the sim.RestoreOptions.Policy override. The snapshot is
// an accelerator only — results are bit-identical to the cold path
// (sim.TestForkEquivalence).
type ForkRequest struct {
	// Policies lists the target schedulers, one child job each.
	Policies []sim.PolicyKind `json:"policies"`
	// AtCycle is the CPU cycle of the policy switch (must be positive).
	AtCycle int64 `json:"atCycle"`
	// TimeoutMS bounds each child's run time; 0 means no deadline.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
}

// forkGroup is the shared warm-up snapshot of one fork request's
// children. The first child to execute computes it (running the warm-up
// config to the fork cycle and serializing a checkpoint); siblings
// block and share the bytes, which the group keeps for its lifetime. A
// failed warm-up follows store.Store.Do's rule: the error goes to the
// child that computed it (which then runs cold), and the next child
// computes afresh — so one child's cancellation or deadline never
// sends its siblings down the cold path.
type forkGroup struct {
	warmCfg  sim.Config
	workload []string
	at       int64

	mu   sync.Mutex
	busy chan struct{} // non-nil while a child computes; closed when it finishes
	snap []byte
}

// snapshot returns the group's warm-up checkpoint, computing it if no
// child has yet succeeded. Waiting is bounded by ctx.
func (g *forkGroup) snapshot(ctx context.Context, s *Server) ([]byte, error) {
	for {
		g.mu.Lock()
		if snap := g.snap; snap != nil {
			g.mu.Unlock()
			return snap, nil
		}
		if busy := g.busy; busy != nil {
			g.mu.Unlock()
			select {
			case <-busy:
				continue // the computer succeeded or failed; re-check
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		busy := make(chan struct{})
		g.busy = busy
		g.mu.Unlock()

		snap, err := g.compute(ctx, s)
		g.mu.Lock()
		g.busy = nil
		if err == nil {
			g.snap = snap
		}
		close(busy)
		g.mu.Unlock()
		return snap, err
	}
}

// compute runs the warm-up simulation to the fork cycle and serializes
// the snapshot.
func (g *forkGroup) compute(ctx context.Context, s *Server) ([]byte, error) {
	profs, err := experiments.Profiles(g.workload...)
	if err != nil {
		return nil, err
	}
	sys, err := sim.NewSystem(g.warmCfg, profs)
	if err != nil {
		return nil, err
	}
	s.logf("fork group: warming %v under %s to cycle %d", g.workload, g.warmCfg.Policy, g.at)
	return sys.CheckpointAt(ctx, g.at)
}

// Fork expands a fork request against a parent job into child jobs,
// deduplicating against the result cache exactly like Submit. The
// parent only contributes its configuration and workload, so it may be
// in any state — forking a still-queued parent simply runs the warm-up
// once in the group instead of reusing anything from the parent's run.
func (s *Server) Fork(parentID string, req ForkRequest) (*SubmitResponse, error) {
	s.mu.Lock()
	parent, ok := s.jobs[parentID]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNoSuchJob
	}
	switch {
	case len(req.Policies) == 0:
		return nil, badRequest("fork needs at least one target policy")
	case req.AtCycle <= 0:
		return nil, badRequest("fork atCycle must be positive, got %d", req.AtCycle)
	case req.TimeoutMS < 0:
		return nil, badRequest("timeoutMs must be non-negative, got %d", req.TimeoutMS)
	case parent.cfg.ForkAtCycle != 0:
		return nil, badRequest("job %s is itself a fork child; fork the original job instead", parentID)
	}

	warmCfg := parent.cfg
	warmCfg.ForkAtCycle = 0
	warmCfg.WarmupPolicy = ""
	warmCfg.Telemetry = nil
	group := &forkGroup{warmCfg: warmCfg, workload: parent.workload, at: req.AtCycle}

	var cells []*job
	for _, pol := range req.Policies {
		cfg := parent.cfg
		cfg.Policy = pol
		cfg.ForkAtCycle = req.AtCycle
		cfg.WarmupPolicy = parent.cfg.Policy
		if err := cfg.Validate(); err != nil {
			return nil, &RequestError{Err: fmt.Errorf("fork target %q: %w", pol, err)}
		}
		j, err := s.newJob(cfg, parent.workload, req.TimeoutMS)
		if err != nil {
			return nil, err
		}
		j.forkOf = parentID
		cells = append(cells, j)
	}

	var fresh []*job
	for _, j := range cells {
		if res, ok := s.cache.Get(j.fp); ok {
			j.status = StatusDone
			j.cached = true
			j.result = res
			j.finishedAt = time.Now()
		} else {
			j.fork = group
			fresh = append(fresh, j)
		}
	}
	if len(fresh) > 0 {
		for _, j := range fresh {
			cfg := j.cfg
			rec := walRecord{
				Type:        walSubmit,
				Job:         j.id,
				Config:      &cfg,
				Workload:    j.workload,
				TimeoutMS:   j.timeout.Milliseconds(),
				Fingerprint: j.fp,
			}
			if err := s.wal.append(rec); err != nil {
				s.logf("job %s: %v", j.id, err)
			}
		}
		if err := s.queue.TryEnqueue(fresh...); err != nil {
			return nil, err
		}
	}
	resp := &SubmitResponse{}
	s.mu.Lock()
	for _, j := range cells {
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.mu.Unlock()
	for _, j := range cells {
		resp.Jobs = append(resp.Jobs, j.info())
	}
	return resp, nil
}
