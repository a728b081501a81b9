package cpu

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stfm/internal/trace"
)

// gatedCase is one core-level differential run: a finite trace, the
// memory port's behaviour, the commit marks an engine would hand the
// core (ascending), and the period of the sample reads.
type gatedCase struct {
	cfg      Config
	accesses []trace.Access
	latency  int64
	l2Miss   bool
	// refusePeriod > 0 makes the port refuse every load and store on
	// the last quarter of each period, exercising the polled retries of
	// rejected loads and back-pressured writebacks.
	refusePeriod int64
	marks        []int64
	every        int64
}

// coreObs is what a driver reads from the core at a sample cycle.
type coreObs struct {
	cycle                                 int64
	committed, cycles, memStall, stallAny int64
}

func observe(c *Core, now int64) coreObs {
	return coreObs{now, c.Committed(), c.Cycles(), c.MemStallCycles(), c.StallCycles()}
}

// drive runs the case to completion. The dense driver ticks the core on
// every cycle; the gated one ticks it only when NextAt() <= now, the way
// the simulation engine does, and settles its lazy accounting with
// FlushIdle before every sample read. Both poll Committed() after each
// cycle, without a flush, against the current commit mark, as the
// engine's freeze check does, and record the cycle each mark is reached.
func (tc *gatedCase) drive(gated bool) (samples []coreObs, crossed []int64, end coreObs, err error) {
	mem := &scriptMem{latency: tc.latency, l2Miss: tc.l2Miss}
	c := New(0, tc.cfg, mem, &fixedStream{accesses: tc.accesses})
	mark := 0
	setMark := func() {
		if mark < len(tc.marks) {
			c.SetCommitMark(tc.marks[mark])
		} else {
			c.SetCommitMark(Horizon)
		}
	}
	setMark()
	const limit = 5_000_000
	var now int64
	for ; now < limit && !c.Done(); now++ {
		if now%tc.every == 0 {
			if gated {
				c.FlushIdle(now)
			}
			samples = append(samples, observe(c, now))
		}
		if tc.refusePeriod > 0 {
			mem.refuse = now%tc.refusePeriod >= tc.refusePeriod*3/4
		}
		mem.tick(now)
		if !gated || c.NextAt() <= now {
			c.Tick(now)
		}
		for mark < len(tc.marks) && c.Committed() >= tc.marks[mark] {
			crossed = append(crossed, now)
			mark++
			setMark()
		}
	}
	if !c.Done() {
		return nil, nil, coreObs{}, fmt.Errorf("core not done after %d cycles", limit)
	}
	c.FlushIdle(now)
	return samples, crossed, observe(c, now), nil
}

// check runs the case densely and gated and reports the first
// difference.
func (tc *gatedCase) check() error {
	ds, dx, de, err := tc.drive(false)
	if err != nil {
		return fmt.Errorf("dense: %w", err)
	}
	gs, gx, ge, err := tc.drive(true)
	if err != nil {
		return fmt.Errorf("gated: %w", err)
	}
	if ge != de {
		return fmt.Errorf("at Done: gated %+v, dense %+v", ge, de)
	}
	for i := range ds {
		if i >= len(gs) || gs[i] != ds[i] {
			return fmt.Errorf("sample %d: gated %+v, dense %+v", i, gs[min(i, len(gs)-1)], ds[i])
		}
	}
	if !slices.Equal(gx, dx) {
		return fmt.Errorf("commit marks %v reached at cycles %v gated, %v dense", tc.marks, gx, dx)
	}
	return nil
}

// randomGatedCase draws a trace with compute gaps from 0 up to ~5,000
// instructions, writebacks, dependent chains and commit marks.
func randomGatedCase(rng *rand.Rand) *gatedCase {
	tc := &gatedCase{
		cfg:     Config{Width: 1 + rng.Intn(4), WindowSize: 4 + rng.Intn(125)},
		latency: 1 + rng.Int63n(300),
		l2Miss:  rng.Intn(2) == 0,
		every:   1 + rng.Int63n(400),
	}
	if rng.Intn(3) == 0 {
		tc.cfg = DefaultConfig()
	}
	if rng.Intn(3) == 0 {
		tc.refusePeriod = 4 + rng.Int63n(200)
	}
	var instr int64
	for i, n := 0, 1+rng.Intn(60); i < n; i++ {
		var gap int64
		switch rng.Intn(3) {
		case 0:
			gap = rng.Int63n(8)
		case 1:
			gap = rng.Int63n(200)
		default:
			gap = rng.Int63n(5_001)
		}
		a := trace.Access{Gap: gap, LineAddr: rng.Uint64() % 64, Chain: rng.Intn(3), Dep: rng.Intn(2) == 0}
		instr += gap
		if rng.Intn(5) == 0 {
			a.Kind = trace.Write
		} else {
			instr++
		}
		tc.accesses = append(tc.accesses, a)
	}
	for i, n := 0, rng.Intn(5); i < n && instr > 0; i++ {
		tc.marks = append(tc.marks, 1+rng.Int63n(instr))
	}
	slices.Sort(tc.marks)
	return tc
}

// TestCoreGatedEqualsDense is the core-level oracle for the lazy
// accounting (FlushIdle over idle parks and steady-compute stretches):
// a core ticked only when it asks reports the same Committed, Cycles,
// MemStallCycles and StallCycles at every sample cycle and at Done as
// one ticked every cycle, and reaches every commit mark on the same
// cycle.
func TestCoreGatedEqualsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		tc := randomGatedCase(rng)
		if err := tc.check(); err != nil {
			t.Fatalf("case %d (%+v, %d accesses): %v", i, tc.cfg, len(tc.accesses), err)
		}
	}
}

// gatedCaseFromBytes decodes fuzz input: a 4-byte header (latency,
// flags, sample period, window size) then one access per 4 bytes (a
// little-endian gap, a kind/dependence/chain/mark byte, an address).
func gatedCaseFromBytes(data []byte) *gatedCase {
	if len(data) < 4 {
		return nil
	}
	h := data[:4]
	tc := &gatedCase{
		cfg:     Config{Width: 1 + int(h[1]>>5&3), WindowSize: 4 + int(h[3]%125)},
		latency: 1 + int64(h[0]),
		l2Miss:  h[1]&1 != 0,
		every:   1 + int64(h[2]),
	}
	if h[1]&2 != 0 {
		tc.refusePeriod = 4 + int64(h[0]%64)
	}
	var instr int64
	for rec := data[4:]; len(rec) >= 4 && len(tc.accesses) < 64; rec = rec[4:] {
		gap := int64(binary.LittleEndian.Uint16(rec)) % 5_001
		a := trace.Access{Gap: gap, LineAddr: uint64(rec[3]), Chain: int(rec[2] >> 2 & 3), Dep: rec[2]&2 != 0}
		instr += gap
		if rec[2]&1 != 0 {
			a.Kind = trace.Write
		} else {
			instr++
		}
		tc.accesses = append(tc.accesses, a)
		if rec[2]&0x40 != 0 && instr > 0 {
			tc.marks = append(tc.marks, max(1, instr-int64(rec[3]%5)))
		}
	}
	slices.Sort(tc.marks)
	return tc
}

// FuzzCoreGatedEqualsDense feeds byte-encoded traces through the same
// differential as TestCoreGatedEqualsDense.
func FuzzCoreGatedEqualsDense(f *testing.F) {
	f.Add([]byte{200, 1, 7, 124, 0xb8, 0x0b, 0x40, 1, 2, 0, 2, 2, 0x10, 0x27, 0x41, 3})
	f.Add([]byte{20, 3, 0, 4, 50, 0, 0x42, 9, 0, 0, 1, 7, 0xff, 0xff, 0x46, 5})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 4+4*(1+rng.Intn(20)))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tc := gatedCaseFromBytes(data)
		if tc == nil {
			return
		}
		if err := tc.check(); err != nil {
			t.Fatal(err)
		}
	})
}
