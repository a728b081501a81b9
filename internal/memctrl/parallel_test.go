package memctrl

import (
	"reflect"
	"testing"

	"stfm/internal/dram"
)

// cmdRecord is one issued command as seen through CommandTrace, for
// comparing full command schedules between engines.
type cmdRecord struct {
	now int64
	ch  int
	cmd dram.Command
	req uint64
}

// traceCommands attaches a CommandTrace that appends every issued
// command to the returned slice pointer.
func traceCommands(c *Controller) *[]cmdRecord {
	var recs []cmdRecord
	c.CommandTrace = func(now int64, ch int, cmd dram.Command, req *Request) {
		recs = append(recs, cmdRecord{now: now, ch: ch, cmd: cmd, req: req.ID})
	}
	return &recs
}

// newParallelController builds a controller with the parallel engine
// forced on regardless of host CPU count.
func newParallelController(tb testing.TB, threads, channels, workers int) *Controller {
	tb.Helper()
	cfg := DefaultConfig(threads, channels)
	cfg.Parallelism = workers
	c, err := NewController(cfg, benchFRFCFS{})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// TestResolveParallelism pins the knob's clamping rules: never above
// the channel count, never below one, and negative means
// GOMAXPROCS-sized (which is at least one).
func TestResolveParallelism(t *testing.T) {
	cases := []struct{ p, channels, wantMax, wantMin int }{
		{0, 4, 1, 1},  // default: serial
		{1, 4, 1, 1},  // explicit serial
		{2, 4, 2, 2},  // within budget
		{16, 4, 4, 4}, // clamped to channels
		{3, 1, 1, 1},  // single channel can never parallelize
		{-1, 8, 8, 1}, // auto: GOMAXPROCS, clamped to channels
		{-1, 1, 1, 1}, // auto on one channel stays serial
	}
	for _, tc := range cases {
		got := resolveParallelism(tc.p, tc.channels)
		if got < tc.wantMin || got > tc.wantMax {
			t.Errorf("resolveParallelism(%d, %d) = %d, want in [%d, %d]",
				tc.p, tc.channels, got, tc.wantMin, tc.wantMax)
		}
	}
}

// TestParallelCommandScheduleMatchesSerial drives a serial and a
// parallel controller through the identical enqueue workload — full
// read and write buffers across four channels, so the write-drain
// hysteresis (the cross-channel coupling phase B must revalidate)
// flips during the run — and requires the two engines to issue the
// exact same command sequence at the same cycles. This is the
// controller-level statement of bit-exactness, finer than comparing
// end-of-run Results: any divergence in arbitration order, drain
// episodes, or horizon bookkeeping shows up as a first differing
// command.
func TestParallelCommandScheduleMatchesSerial(t *testing.T) {
	const threads, channels = 8, 4
	serial := newEdgeController(t, threads, channels)
	par := newParallelController(t, threads, channels, channels)
	defer par.StopWorkers()
	if par.Parallelism() != channels {
		t.Fatalf("parallel controller resolved %d workers, want %d", par.Parallelism(), channels)
	}

	serialRecs := traceCommands(serial)
	parRecs := traceCommands(par)

	for round := 0; round < 3; round++ {
		// Refill both controllers identically at the same cycle, then
		// drain them event-driven. Refills at the drained controllers'
		// (identical) wake cycles keep the timelines aligned.
		at := serial.NextTickAt()
		if round == 0 {
			at = 0
		}
		if pa := par.NextTickAt(); round > 0 && pa != at {
			t.Fatalf("round %d: engines wake at different cycles: serial %d, parallel %d", round, at, pa)
		}
		fillQueues(serial, at, threads)
		fillQueues(par, at, threads)
		serial.Drain(at)
		par.Drain(at)
	}

	if len(*serialRecs) == 0 {
		t.Fatal("no commands issued")
	}
	if !reflect.DeepEqual(*serialRecs, *parRecs) {
		limit := min(len(*serialRecs), len(*parRecs))
		for i := 0; i < limit; i++ {
			if (*serialRecs)[i] != (*parRecs)[i] {
				t.Fatalf("command %d diverges\nserial:   %+v\nparallel: %+v",
					i, (*serialRecs)[i], (*parRecs)[i])
			}
		}
		t.Fatalf("command counts diverge: serial %d, parallel %d", len(*serialRecs), len(*parRecs))
	}
	if err := par.CheckInvariants(); err != nil {
		t.Errorf("parallel controller invariants violated after drain: %v", err)
	}
}

// TestParallelMergeOrderAcrossChannels is the regression test for the
// deterministic completion merge: when requests on *different channels*
// complete at the same cycle, their owners must be notified in
// (CompleteAt, then arrival ID) order across the per-channel in-flight
// lists — never grouped by channel index. Channel 1 deliberately holds
// the oldest request (ID 2) so an engine that drained channel 0's list
// first would fire 5 before 2 and fail.
func TestParallelMergeOrderAcrossChannels(t *testing.T) {
	c := newParallelController(t, 4, 2, 2)
	defer c.StopWorkers()
	var fired []uint64
	mk := func(id uint64, ch int, at int64) *Request {
		return &Request{
			ID:         id,
			Thread:     int(id) % 4,
			Loc:        dram.Location{Channel: ch},
			IsWrite:    true, // writes skip read-side stats bookkeeping
			CompleteAt: at,
			Owner:      CompleteFunc(func(tag, _ int64) { fired = append(fired, uint64(tag)) }),
			Tag:        int64(id),
		}
	}
	// Same-cycle cluster at cycle 6 spans both channels with IDs
	// interleaved across them; cycle 3 lives only on channel 1; one
	// not-yet-due request per channel must survive.
	ch0 := &c.chState[0].inFlight
	ch1 := &c.chState[1].inFlight
	*ch0 = append((*ch0)[:0], mk(5, 0, 6), mk(90, 0, 900), mk(3, 0, 6))
	*ch1 = append((*ch1)[:0], mk(2, 1, 6), mk(7, 1, 3), mk(91, 1, 900))
	c.completeFinished(10)
	want := []uint64{7, 2, 3, 5}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("completion order = %v, want %v ((CompleteAt, ID) across channels)", fired, want)
	}
	if len(*ch0) != 1 || (*ch0)[0].ID != 90 || len(*ch1) != 1 || (*ch1)[0].ID != 91 {
		t.Fatalf("per-channel in-flight after retirement = %v / %v, want only 90 / 91", *ch0, *ch1)
	}
}

// TestStopWorkersIdempotent pins the pool lifecycle: StopWorkers on a
// never-started pool is a no-op, stopping twice is safe, and the
// controller keeps scheduling (with a fresh pool) after a stop.
func TestStopWorkersIdempotent(t *testing.T) {
	c := newParallelController(t, 8, 4, 4)
	c.StopWorkers() // never started: no-op
	fillQueues(c, 0, 8)
	end := c.Drain(0)
	c.StopWorkers()
	c.StopWorkers() // double stop: no-op
	// The controller must keep working after a stop.
	fillQueues(c, end, 8)
	c.Drain(end)
	c.StopWorkers()
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants violated after stop/restart cycle: %v", err)
	}
}

// TestEdgePathZeroAllocsParallel extends the PR-5 allocation gate to
// the parallel engine: once the pool is warm, a parallel edge —
// active-channel selection, phase-A dispatch over the task channel,
// arbitration, phase-B validation and commit — must allocate nothing.
// Channel sends of int32 and WaitGroup operations are allocation-free;
// anything else creeping into the edge would scale GC pressure with
// simulated cycles exactly like a serial-path regression.
func TestEdgePathZeroAllocsParallel(t *testing.T) {
	c := newParallelController(t, 8, 2, 2)
	defer c.StopWorkers()
	fillQueues(c, 0, 8)
	// Warm several edges so the pool goroutines exist and every lazily
	// sized scratch reaches steady state.
	now := int64(0)
	for i := 0; i < 4 && now < dram.Horizon; i++ {
		c.Tick(now)
		now = c.NextTickAt()
	}
	allocs := testing.AllocsPerRun(100, func() {
		if now < dram.Horizon {
			c.Tick(now)
			now = c.NextTickAt()
		}
	})
	if allocs != 0 {
		t.Errorf("parallel edge path allocates %.1f times per tick, want 0", allocs)
	}
}

// TestParallelBatchPolicyStaysSerial pins the PAR-BS carve-out: a
// BatchPolicy's PrepareCycle mutates policy state during arbitration,
// so the controller must keep such policies on the serial engine even
// when Parallelism asks for workers.
func TestParallelBatchPolicyStaysSerial(t *testing.T) {
	cfg := DefaultConfig(4, 2)
	cfg.Parallelism = 2
	c, err := NewController(cfg, batchProbe{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.StopWorkers()
	fillQueues(c, 0, 4)
	c.Drain(0)
	if c.pool != nil {
		t.Error("batch policy ran on the parallel engine: worker pool was started")
	}
}

// batchProbe is a minimal BatchPolicy: FR-FCFS ordering with a no-op
// PrepareCycle, just enough to trigger the batch scheduling path.
type batchProbe struct{ benchFRFCFS }

func (batchProbe) PrepareCycle(int, int64, []Candidate) {}

var _ BatchPolicy = batchProbe{}
