package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"stfm/internal/experiments"
	"stfm/internal/service"
	"stfm/internal/sim"
	"stfm/internal/trace"
	"stfm/internal/workloads"
)

const (
	serverInstrs    = 15_000
	serverMinMisses = 50
	// serverPoll is the clients' fixed status-poll interval.
	serverPoll = 5 * time.Millisecond
	// serverDups is the number of configs both clients send at once.
	serverDups = 8
)

// step is one closed-loop request of one client.
type step struct {
	// kind is fresh, repeat or alone (a submission), dup (the same new
	// config, sent by both clients at once) or fork (of an earlier
	// finished job of this client).
	kind     string
	req      service.JobRequest
	parent   int // fork: index of the parent step in this client's list
	policies []sim.PolicyKind
}

// served is one job as a client sent it and observed its outcome.
type served struct {
	cfg      sim.Config // for a fork child, its fork-shaped config
	workload []string
	latency  time.Duration // Submit (or Fork) call start to Result received
	submit   time.Duration // the Submit or Fork call alone
	received time.Time
	info     service.JobInfo
	result   *sim.Result
}

// serverWork is server-mixed: an in-process stfm-server (two workers,
// journal, result cache and baseline store in a fresh directory) behind a
// loopback listener, driven by two closed-loop service.Client callers.
// Each caller waits for a job's Result before sending its next request.
type serverWork struct {
	steps [2][]step
	first []served // the first iteration's jobs, for the oracle
}

// jobConfig is a server job's config: the experiment runner's base config
// at the server workload's scale.
func jobConfig(policy sim.PolicyKind, cores int, seed uint64) sim.Config {
	cfg := sim.DefaultConfig(policy, cores)
	cfg.InstrTarget = serverInstrs
	cfg.MinMisses = serverMinMisses
	cfg.Seed = seed
	return cfg
}

// prepare generates both clients' request lists from the seed. What is
// sent is the same for every seed: every fresh config once and once
// more as an exact repeat, a fixed set of them forked under fixed
// policy pairs, every benchmark once alone, and the duplicate configs.
// The seed changes only the order, the client each request lands on and
// Config.Seed, so seeds vary the traffic and not its composition.
func (w *serverWork) prepare(ctx context.Context, b *bench) error {
	type entry struct {
		req  service.JobRequest
		fork []sim.PolicyKind // non-nil: fork this job once it is done
	}
	var pool []entry
	var dupPool, alone []service.JobRequest
	names := map[string]bool{}
	add := func(m workloads.Mix, p sim.PolicyKind) service.JobRequest {
		for _, pr := range m.Profiles {
			names[pr.Name] = true
		}
		return service.JobRequest{Config: jobConfig(p, len(m.Profiles), b.seed), Workload: trace.Names(m.Profiles)}
	}
	forkPairs := [][]sim.PolicyKind{
		{sim.PolicySTFM, sim.PolicyNFQ},
		{sim.PolicyFRFCFSCap, sim.PolicySTFM},
		{sim.PolicyNFQ, sim.PolicyFCFS},
	}
	pairs := workloads.TwoCorePairs()
	for i, m := range pairs[:16] {
		pool = append(pool, entry{req: add(m, sim.PolicyFRFCFS)})
		pool = append(pool, entry{req: add(m, sim.PolicySTFM)})
		if i%2 == 0 {
			pool[len(pool)-2].fork = forkPairs[i/2%len(forkPairs)]
		}
	}
	for i, m := range workloads.SampleFourCore() {
		for _, p := range []sim.PolicyKind{sim.PolicyFRFCFS, sim.PolicySTFM, sim.PolicyFCFS} {
			pool = append(pool, entry{req: add(m, p)})
		}
		if i%2 == 0 {
			pool[len(pool)-3].fork = forkPairs[i/2%len(forkPairs)]
		}
	}
	for _, m := range pairs[16 : 16+serverDups] {
		dupPool = append(dupPool, add(m, sim.PolicySTFM))
	}
	var sorted []string
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		alone = append(alone, service.JobRequest{Config: jobConfig(sim.PolicyFRFCFS, 1, b.seed), Workload: []string{n}})
	}

	rng := rand.New(rand.NewSource(int64(b.seed)))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	rng.Shuffle(len(alone), func(i, j int) { alone[i], alone[j] = alone[j], alone[i] })
	rng.Shuffle(len(dupPool), func(i, j int) { dupPool[i], dupPool[j] = dupPool[j], dupPool[i] })

	// Each client's list before duplicates: its share of the pool, each
	// entry as fresh + repeat (+ fork), and its share of the alone jobs,
	// shuffled; then an entry's first appearance is made the fresh one,
	// so repeats and forks always follow a finished original.
	type item struct {
		kind  string
		entry int // index into pool; -1 for alone jobs
		req   service.JobRequest
	}
	var lists [2][]item
	for i, e := range pool {
		c := i % 2
		lists[c] = append(lists[c], item{"fresh", i, e.req}, item{"repeat", i, e.req})
		if e.fork != nil {
			lists[c] = append(lists[c], item{"fork", i, e.req})
		}
	}
	for i, r := range alone {
		lists[i%2] = append(lists[i%2], item{"alone", -1, r})
	}
	for c := range lists {
		l := lists[c]
		rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
		first := map[int]int{}
		for i, it := range l {
			if it.entry < 0 {
				continue
			}
			if f, ok := first[it.entry]; !ok {
				first[it.entry] = i
			} else if it.kind == "fresh" {
				l[f].kind, l[i].kind = "fresh", l[f].kind
			}
		}
	}
	// Duplicates go at the same indices in both lists, so both clients
	// reach them together (a barrier makes sure of it).
	n := min(len(lists[0]), len(lists[1]))
	for d, req := range dupPool {
		at := (d + 1) * n / (len(dupPool) + 1)
		for c := range lists {
			lists[c] = append(lists[c][:at], append([]item{{"dup", -1, req}}, lists[c][at:]...)...)
		}
	}
	for c, l := range lists {
		freshAt := map[int]int{}
		w.steps[c] = nil
		for i, it := range l {
			s := step{kind: it.kind, req: it.req}
			switch it.kind {
			case "fresh":
				freshAt[it.entry] = i
			case "fork":
				s.parent, s.policies = freshAt[it.entry], pool[it.entry].fork
			}
			w.steps[c] = append(w.steps[c], s)
		}
	}
	return nil
}

// alternate returns every second element of s starting at s[c], the
// share of a request pool that client c sends.
func alternate(s []service.JobRequest, c int) []service.JobRequest {
	var out []service.JobRequest
	for i := c; i < len(s); i += 2 {
		out = append(out, s[i])
	}
	return out
}

func (w *serverWork) setup(ctx context.Context, b *bench, it *iter) (func() error, func(bool), error) {
	dir, err := b.tempDir("server-")
	if err != nil {
		return nil, nil, err
	}
	srv, err := service.New(service.Options{
		Workers:     2,
		CacheDir:    filepath.Join(dir, "cache"),
		JournalDir:  filepath.Join(dir, "journal"),
		BaselineDir: filepath.Join(dir, "baseline"),
	})
	if err != nil {
		return nil, nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(ctx)
		return nil, nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		hs.Serve(ln)
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: 4}
	client := service.NewClient("http://"+ln.Addr().String(), &http.Client{Transport: tr})

	var out [2][][]served
	run := func() error {
		rctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var barrier [2]map[int]chan struct{}
		for c := range barrier {
			barrier[c] = map[int]chan struct{}{}
			for i, s := range w.steps[c] {
				if s.kind == "dup" {
					barrier[c][i] = make(chan struct{})
				}
			}
		}
		errs := make(chan error, 2)
		for c := 0; c < 2; c++ {
			go func(c int) {
				res, err := w.client(rctx, b, it, client, c, barrier)
				out[c] = res
				if err != nil {
					cancel()
				}
				errs <- err
			}(c)
		}
		return errors.Join(<-errs, <-errs)
	}
	teardown := func(ran bool) {
		if ran {
			w.collect(b, it, out, dir)
		}
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		hs.Shutdown(sctx)
		<-serveDone
		srv.Drain(sctx)
		tr.CloseIdleConnections()
	}
	return run, teardown, nil
}

// client runs one closed-loop caller over its request list.
func (w *serverWork) client(ctx context.Context, b *bench, it *iter, cl *service.Client, c int, barrier [2]map[int]chan struct{}) ([][]served, error) {
	out := make([][]served, len(w.steps[c]))
	await := func(start time.Time, submit time.Duration, id string) (served, error) {
		info, err := cl.Wait(ctx, id, serverPoll)
		if err != nil {
			return served{}, err
		}
		rr, err := cl.Result(ctx, id)
		if err != nil {
			return served{}, err
		}
		now := time.Now()
		if rr.Status != service.StatusDone || rr.Result == nil {
			b.fail("job %s ended %s: %s", id, rr.Status, rr.Error)
		}
		return served{latency: now.Sub(start), submit: submit, received: now, info: info, result: rr.Result}, nil
	}
	for i, s := range w.steps[c] {
		if s.kind == "dup" {
			close(barrier[c][i])
			select {
			case <-barrier[1-c][i]:
			case <-ctx.Done():
				return out, ctx.Err()
			}
		}
		_, end := b.spans.begin(it.root, c+1, s.kind)
		start := time.Now()
		var resp *service.SubmitResponse
		var err error
		cfg, workload := s.req.Config, s.req.Workload
		if s.kind == "fork" {
			if len(out[s.parent]) == 0 || out[s.parent][0].result == nil {
				b.addOps(1)
				b.fail("client %d step %d: fork parent step %d has no Result", c, i, s.parent)
				end()
				continue
			}
			parent := out[s.parent][0]
			at := parent.result.TotalCycles / 2
			cfg, workload = parent.cfg, parent.workload
			cfg.ForkAtCycle, cfg.WarmupPolicy = at, parent.cfg.Policy
			resp, err = cl.Fork(ctx, parent.info.ID, service.ForkRequest{Policies: s.policies, AtCycle: at})
		} else {
			resp, err = cl.Submit(ctx, s.req)
		}
		submit := time.Since(start)
		var apiErr *service.APIError
		if errors.As(err, &apiErr) {
			b.addOps(1)
			b.fail("client %d step %d (%s): %v", c, i, s.kind, err)
			end()
			continue
		}
		if err != nil {
			end()
			return out, err
		}
		for _, j := range resp.Jobs {
			sv, err := await(start, submit, j.ID)
			if err != nil {
				end()
				return out, err
			}
			sv.cfg, sv.workload = cfg, workload
			sv.cfg.Policy = j.Policy
			b.addOps(1)
			out[i] = append(out[i], sv)
		}
		end()
	}
	return out, nil
}

// collect turns both clients' observations into the iteration's Results,
// latencies and service-layer figures.
func (w *serverWork) collect(b *bench, it *iter, out [2][][]served, dir string) {
	var submit, queue, runMS, gap []float64
	var all []served
	for c := range out {
		for _, jobs := range out[c] {
			for _, sv := range jobs {
				all = append(all, sv)
				it.jobs = append(it.jobs, sv.latency)
				it.results = append(it.results, sv.result)
				submit = append(submit, ms(sv.submit))
				if sv.result == nil {
					continue
				}
				it.cycles += sv.result.TotalCycles
				for _, th := range sv.result.Threads {
					it.requests += th.DRAMReads + th.DRAMWrites
					it.instructions += th.Instructions
				}
				inf := sv.info
				if !inf.Cached && !inf.StartedAt.IsZero() {
					queue = append(queue, ms(inf.StartedAt.Sub(inf.SubmittedAt)))
					runMS = append(runMS, ms(inf.FinishedAt.Sub(inf.StartedAt)))
					b.spans.add(it.root, 3, "service.job.run "+short(inf.Workload), inf.StartedAt, inf.FinishedAt)
				}
				if !inf.FinishedAt.IsZero() {
					gap = append(gap, ms(sv.received.Round(0).Sub(inf.FinishedAt)))
				}
			}
		}
	}
	var cached, runs int
	distinct := map[string]bool{}
	for _, sv := range all {
		if sv.info.Cached {
			cached++
		} else {
			runs++
		}
		distinct[sv.info.Fingerprint] = true
	}
	l := it.layer
	l["service.submit_ms_p50"] = percentile(submit, 50)
	l["service.queue_wait_ms_p50"] = percentile(queue, 50)
	l["service.queue_wait_ms_p95"] = percentile(queue, 95)
	l["service.run_ms_p50"] = percentile(runMS, 50)
	l["service.run_ms_p95"] = percentile(runMS, 95)
	l["service.poll_gap_ms_p50"] = percentile(gap, 50)
	l["service.cache_hit_rate"] = ratio(int64(cached), int64(len(all)))
	l["service.runs_per_distinct_config"] = ratio(int64(runs), int64(len(distinct)))
	l["service.wal_kb"] = dirKB(filepath.Join(dir, "journal"))
	l["sim.cycles"] = float64(it.cycles)
	l["cpu.instructions"] = float64(it.instructions)
	l["memctrl.requests"] = float64(it.requests)
	if w.first == nil {
		w.first = all
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// check compares a sample of served Results with direct sim.RunContext
// runs of the same configs (fork children with their fork-shaped
// config); a traced run also computes the paper's metrics over the STFM
// jobs served.
func (w *serverWork) check(ctx context.Context, b *bench) error {
	jobs := w.first
	// Oracle: every 16th job, forks included, run directly.
	for i := int(b.seed % 16); i < len(jobs); i += 16 {
		j := jobs[i]
		profs, err := experiments.Profiles(j.workload...)
		if err != nil {
			return err
		}
		_, end := b.spans.begin(0, 1, "oracle sim.RunContext "+short(j.workload))
		want, err := sim.RunContext(ctx, j.cfg, profs)
		end()
		b.addOps(1)
		if err != nil {
			return fmt.Errorf("oracle run %v: %w", j.workload, err)
		}
		if b.inject && i < 16 {
			want.TotalCycles++
		}
		if !reflect.DeepEqual(j.result, want) {
			b.fail("served Result for %v (%s) differs from a direct run", j.workload, j.cfg.Policy)
		}
	}
	if !b.traced {
		return nil
	}
	// Paper metrics: mean over the distinct multi-core STFM jobs served.
	var us, wss []float64
	alone := map[string]sim.ThreadResult{}
	seen := map[string]bool{}
	for _, j := range jobs {
		if j.result == nil || j.cfg.Policy != sim.PolicySTFM || len(j.workload) < 2 || j.cfg.ForkAtCycle != 0 {
			continue
		}
		key := service.Key(j.cfg, j.workload)
		if seen[key] {
			continue
		}
		seen[key] = true
		profs, err := experiments.Profiles(j.workload...)
		if err != nil {
			return err
		}
		u, ws, err := paperMetrics(ctx, b, j.cfg, profs, j.result, alone)
		if err != nil {
			return err
		}
		us, wss = append(us, u), append(wss, ws)
	}
	b.setPaper(mean(us), mean(wss))
	return nil
}
