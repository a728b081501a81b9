package memctrl_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"stfm/internal/core"
	"stfm/internal/dram"
	"stfm/internal/memctrl"
	"stfm/internal/memctrl/policy"
)

// spy forwards every call to the policy it wraps and hands each
// OnSchedule's waiting set to check first.
type spy struct {
	memctrl.Policy
	check func(chosen *memctrl.Candidate, waiting []memctrl.Candidate)
}

func (s *spy) OnSchedule(now int64, chosen *memctrl.Candidate, waiting []memctrl.Candidate) {
	s.check(chosen, waiting)
	s.Policy.OnSchedule(now, chosen, waiting)
}

// wrapSpy returns s with the optional interfaces of s.Policy, so the
// controller takes the same paths (winner memo, event horizon, batch)
// for the wrapped policy as for the bare one.
func wrapSpy(s *spy) memctrl.Policy {
	o, isO := s.Policy.(memctrl.OrderingPolicy)
	e, isE := s.Policy.(memctrl.EventPolicy)
	b, isB := s.Policy.(memctrl.BatchPolicy)
	switch {
	case isB && !isO && !isE:
		return struct {
			*spy
			memctrl.BatchPolicy
		}{s, b}
	case isO && isE && !isB:
		return struct {
			*spy
			memctrl.OrderingPolicy
			memctrl.EventPolicy
		}{s, o, e}
	case isO && !isE && !isB:
		return struct {
			*spy
			memctrl.OrderingPolicy
		}{s, o}
	case !isO && !isE && !isB:
		return s
	}
	panic(fmt.Sprintf("wrapSpy: no wrapper for %s's optional interfaces", s.Policy.Name()))
}

// sortByID orders candidates by request ID; the delayed set has no
// defined order.
func sortByID(cs []memctrl.Candidate) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Req.ID < cs[j].Req.ID })
}

// rig is a random controller shape and request stream: thread, channel
// and bank counts, buffer sizes with tight write-drain watermarks, and
// per-thread favourite rows for row hits. The same seed gives the same
// rig and the same stream.
type rig struct {
	seed     int64
	threads  int
	cfg      memctrl.Config
	hot      []int
	readRate int
}

func newRig(seed int64) rig {
	rng := rand.New(rand.NewSource(seed))
	r := rig{seed: seed, threads: 2 + rng.Intn(7)}
	r.cfg = memctrl.DefaultConfig(r.threads, 1+rng.Intn(3))
	r.cfg.Geometry.BanksPerChannel = []int{4, 8, 16}[rng.Intn(3)]
	r.cfg.ReadBufferCap = 24 + rng.Intn(40)
	r.cfg.WriteBufferCap = 8 + rng.Intn(16)
	r.cfg.WriteDrainHigh = r.cfg.WriteBufferCap * 3 / 4
	r.cfg.WriteDrainLow = r.cfg.WriteBufferCap / 4
	r.hot = make([]int, r.threads)
	for i := range r.hot {
		r.hot[i] = rng.Intn(64)
	}
	r.readRate = 2 + rng.Intn(10)
	return r
}

// rigPolicies names every policy the rig can install.
var rigPolicies = []string{"FR-FCFS", "FCFS", "FRFCFS+Cap", "NFQ", "PAR-BS", "TCM", "STFM"}

// controller builds the rig's controller under the named policy, passed
// through wrap. STFM reads its stall counts from *now.
func (r rig) controller(t *testing.T, name string, now *int64, wrap func(memctrl.Policy) memctrl.Policy) *memctrl.Controller {
	t.Helper()
	c, err := memctrl.NewController(r.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, tm := r.cfg.Geometry, r.cfg.Timing
	var p memctrl.Policy
	switch name {
	case "FR-FCFS":
		p = policy.NewFRFCFS()
	case "FCFS":
		p = policy.NewFCFS()
	case "FRFCFS+Cap":
		p = policy.NewFRFCFSCap(2, g.Channels, g.BanksPerChannel)
	case "NFQ":
		p = policy.NewNFQ(r.threads, g.Channels, g.BanksPerChannel, tm)
	case "PAR-BS":
		p = policy.NewPARBS(r.threads, g.Channels, 5)
	case "TCM":
		tcm := policy.NewTCM(r.threads)
		tcm.ClusterQuantum, tcm.ShuffleQuantum = 4_000, 800
		p = tcm
	case "STFM":
		// Uneven per-thread stall counts give unequal slowdowns, so the
		// fairness rule (and STFM's OrderEpoch) moves during the run.
		stall := func(i int) int64 { return *now * int64(1+i%3) / 4 }
		if p, err = core.NewSTFM(core.DefaultConfig(), c, g, tm, stall); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown policy %q", name)
	}
	c.SetPolicy(wrap(p))
	return c
}

// run drives c through the rig's request stream for the given number of
// cycles, advancing *now. An event-driven run ticks c only when its
// NextTickAt has come; a dense run ticks every cycle and calls
// beforeTick (if non-nil) first. Invariants are checked every 4,096
// cycles.
func (r rig) run(t *testing.T, c *memctrl.Controller, now *int64, cycles int64, dense bool, beforeTick func()) {
	t.Helper()
	g := r.cfg.Geometry
	rng := rand.New(rand.NewSource(r.seed + 1_000_003))
	line := func(thread int) uint64 {
		row := r.hot[thread]
		if rng.Intn(4) == 0 {
			row = rng.Intn(g.RowsPerBank)
		}
		return g.LineAddr(dram.Location{
			Channel: rng.Intn(g.Channels), Bank: rng.Intn(g.BanksPerChannel),
			Row: row, Column: rng.Intn(g.LinesPerRow()),
		})
	}
	for *now = 0; *now < cycles; *now++ {
		if dense || *now >= c.NextTickAt() {
			if beforeTick != nil {
				beforeTick()
			}
			c.Tick(*now)
		}
		// Phases of 1,500 cycles: read-heavy, write-heavy, quiet. The
		// write bursts drive the write buffer through both drain
		// watermarks while reads are queued.
		readRate, writeRate := r.readRate, 4*r.readRate
		switch *now / 1_500 % 3 {
		case 1:
			readRate, writeRate = 4*r.readRate, 3
		case 2:
			readRate, writeRate = 8*r.readRate, 16*r.readRate
		}
		if rng.Intn(readRate) == 0 {
			thr := rng.Intn(r.threads)
			c.EnqueueRead(*now, thr, line(thr), nil, 0)
		}
		if rng.Intn(writeRate) == 0 {
			thr := rng.Intn(r.threads)
			c.EnqueueWrite(*now, thr, line(thr))
		}
		if *now%4_096 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", *now, err)
			}
		}
	}
}

// TestDelayedSetMatchesFilteredWaitingSet is the differential check for
// the set OnSchedule receives. Random rigs run event-driven under every
// policy; at each issue, CommandTrace builds the channel's full eligible
// waiting set from bank state before the command takes effect and
// filters it by the contract: every candidate of the chosen bank, plus
// the other banks' ready column accesses when the chosen command is a
// column access. The set the policy then receives must equal it
// exactly, Candidate for Candidate.
func TestDelayedSetMatchesFilteredWaitingSet(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		r := newRig(seed)
		for _, name := range rigPolicies {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				checkDelayedSets(t, r, name)
			})
		}
	}
}

func checkDelayedSets(t *testing.T, r rig, name string) {
	var now int64
	var want []memctrl.Candidate
	issues, columnIssues, otherBank := 0, 0, 0
	check := func(chosen *memctrl.Candidate, waiting []memctrl.Candidate) {
		issues++
		got := append([]memctrl.Candidate(nil), waiting...)
		sortByID(got)
		sortByID(want)
		if len(got) != len(want) {
			t.Fatalf("cycle %d, %v to bank %d: delayed set has %d candidates, the filtered waiting set %d",
				now, chosen.Cmd.Kind, chosen.Cmd.Bank, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("cycle %d, %v to bank %d: delayed candidate %d = %+v, want %+v",
					now, chosen.Cmd.Kind, chosen.Cmd.Bank, i, got[i], want[i])
			}
			if got[i].Cmd.Bank != chosen.Cmd.Bank {
				otherBank++
			}
		}
		if chosen.IsColumn() {
			columnIssues++
		}
	}
	c := r.controller(t, name, &now, func(p memctrl.Policy) memctrl.Policy {
		return wrapSpy(&spy{Policy: p, check: check})
	})
	c.CommandTrace = func(at int64, ch int, cmd dram.Command, _ *memctrl.Request) {
		want = want[:0]
		for _, cand := range c.FullWaitingSet(ch, at) {
			if cand.Cmd.Bank == cmd.Bank || cmd.Kind.IsColumn() && cand.Ready && cand.Cmd.Kind.IsColumn() {
				want = append(want, cand)
			}
		}
	}
	r.run(t, c, &now, 40_000, false, nil)
	if issues < 1_000 || columnIssues == 0 || otherBank == 0 {
		t.Fatalf("only %d issues (%d column accesses, %d other-bank candidates): the check saw too little",
			issues, columnIssues, otherBank)
	}
	t.Logf("%d threads, %d channels × %d banks: %d issues, %d column accesses, %d other-bank delayed candidates",
		r.threads, r.cfg.Geometry.Channels, r.cfg.Geometry.BanksPerChannel, issues, columnIssues, otherBank)
}

// TestHorizonCacheIsScheduleNeutral checks the channel horizon cache
// and its invalidation rules. The dense oracle of internal/sim cannot:
// a dense-ticked controller consults the same cache. Here each random
// rig runs twice under the same request stream: event-driven with the
// cache, and dense with every cached horizon forgotten before each Tick,
// so every channel is rescanned on every edge. The two must issue the
// same commands, to the same requests, on the same cycles.
func TestHorizonCacheIsScheduleNeutral(t *testing.T) {
	type issued struct {
		at  int64
		ch  int
		cmd dram.Command
		id  uint64
	}
	for seed := int64(1); seed <= 6; seed++ {
		r := newRig(seed)
		for _, name := range rigPolicies {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				trace := func(forget bool) []issued {
					var now int64
					var out []issued
					c := r.controller(t, name, &now, func(p memctrl.Policy) memctrl.Policy { return p })
					c.CommandTrace = func(at int64, ch int, cmd dram.Command, req *memctrl.Request) {
						out = append(out, issued{at, ch, cmd, req.ID})
					}
					var beforeTick func()
					if forget {
						beforeTick = c.ForgetHorizons
					}
					r.run(t, c, &now, 40_000, forget, beforeTick)
					return out
				}
				cached, rescanned := trace(false), trace(true)
				for i := range min(len(cached), len(rescanned)) {
					if cached[i] != rescanned[i] {
						t.Fatalf("command %d: with the horizon cache %+v, rescanning every edge %+v", i, cached[i], rescanned[i])
					}
				}
				if len(cached) != len(rescanned) || len(cached) < 1_000 {
					t.Fatalf("%d commands with the horizon cache, %d rescanning every edge", len(cached), len(rescanned))
				}
			})
		}
	}
}

// randView is a memctrl.View whose per-thread registers the test sets.
type randView struct{ banks, requests, inService []int }

func (v *randView) NumThreads() int          { return len(v.banks) }
func (v *randView) HasQueued(t int) bool     { return v.requests[t] > 0 }
func (v *randView) QueuedBanks(t int) int    { return v.banks[t] }
func (v *randView) QueuedRequests(t int) int { return v.requests[t] }
func (v *randView) InService(t int) int      { return v.inService[t] }

// TestPoliciesReadOnlyTheDelayedSet checks the other half of the
// contract: the policies that read OnSchedule's waiting set (STFM, NFQ,
// FR-FCFS+Cap) read nothing outside the delayed set. Two instances of
// each policy see the same random history: random channel candidate
// sets (banks, command kinds, readiness, first-service flags, arrival
// order) with a random chosen candidate, so STFM's last-bank-user and
// last-row registers follow a random issue history too. One instance is
// handed the whole set, its twin only the candidates Delays admits.
// After every call their SaveState payloads must be byte-identical.
func TestPoliciesReadOnlyTheDelayedSet(t *testing.T) {
	for _, name := range []string{"STFM", "NFQ", "FRFCFS+Cap"} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				checkPolicyTwins(t, name, seed)
			})
		}
	}
}

func checkPolicyTwins(t *testing.T, name string, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	threads := 2 + rng.Intn(15)
	g := dram.DefaultGeometry(1 + rng.Intn(4))
	g.BanksPerChannel = []int{4, 8, 16}[rng.Intn(3)]
	tm := dram.DefaultTiming()
	view := &randView{banks: make([]int, threads), requests: make([]int, threads), inService: make([]int, threads)}
	var now int64
	capValue := 1 + rng.Intn(4)
	build := func() memctrl.Policy {
		switch name {
		case "NFQ":
			return policy.NewNFQ(threads, g.Channels, g.BanksPerChannel, tm)
		case "FRFCFS+Cap":
			return policy.NewFRFCFSCap(capValue, g.Channels, g.BanksPerChannel)
		}
		stall := func(i int) int64 { return now * int64(1+i%3) / 4 }
		p, err := core.NewSTFM(core.DefaultConfig(), view, g, tm, stall)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	whole, delayed := build(), build()
	state := func(p memctrl.Policy) []byte {
		b, err := p.(memctrl.StatefulPolicy).SaveState()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var id uint64
	cut := 0
	var cands, sub []memctrl.Candidate
	for call := 0; call < 400; call++ {
		now += 1 + int64(rng.Intn(40))
		for th := range view.banks {
			view.banks[th], view.requests[th], view.inService[th] = rng.Intn(5), rng.Intn(9), rng.Intn(5)
		}
		whole.BeginCycle(now)
		delayed.BeginCycle(now)
		ch := rng.Intn(g.Channels)
		cands = cands[:0]
		for n := 1 + rng.Intn(24); len(cands) < n; {
			id += 1 + uint64(rng.Intn(3))
			bank := rng.Intn(g.BanksPerChannel)
			kind := dram.CommandKind(rng.Intn(4))
			cands = append(cands, memctrl.Candidate{
				Req: &memctrl.Request{
					ID: id, Thread: rng.Intn(threads), Arrival: now - int64(rng.Intn(500)),
					Loc:                   dram.Location{Channel: ch, Bank: bank, Row: rng.Intn(8)},
					Started:               rng.Intn(2) == 0,
					FirstScheduledOutcome: dram.RowBufferOutcome(rng.Intn(3)),
				},
				Cmd:     dram.Command{Kind: kind, Bank: bank},
				Channel: ch,
				First:   rng.Intn(2) == 0,
				Ready:   rng.Intn(3) != 0,
			})
		}
		// The arrival-ID order is random with respect to slice order.
		rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
		chosen := &cands[rng.Intn(len(cands))]
		chosen.Ready = true
		sub = sub[:0]
		for i := range cands {
			if memctrl.Delays(chosen, &cands[i]) {
				sub = append(sub, cands[i])
			}
		}
		cut += len(cands) - len(sub)
		whole.OnSchedule(now, chosen, cands)
		delayed.OnSchedule(now, chosen, sub)
		if a, b := state(whole), state(delayed); !bytes.Equal(a, b) {
			t.Fatalf("call %d (%v to bank %d, %d of %d candidates delayed): state fed the whole set\n%s\nfed the delayed set\n%s",
				call, chosen.Cmd.Kind, chosen.Cmd.Bank, len(sub), len(cands), a, b)
		}
	}
	if cut == 0 {
		t.Fatal("Delays never left a candidate out: the check compared nothing")
	}
}
