package memctrl

import (
	"testing"

	"stfm/internal/dram"
)

// CompleteFunc adapts a function to the Completer interface for tests.
type CompleteFunc func(tag, at int64)

// Complete implements Completer.
func (f CompleteFunc) Complete(tag, at int64) { f(tag, at) }

// TestEdgePathZeroAllocs pins the tentpole property the controller's
// preallocated containers exist for: once the buffers are loaded, the
// per-edge path — completion retirement, per-bank tournament (memoized
// and full scans), issue, horizon computation — performs zero heap
// allocations per tick. Enqueue allocates nothing either once the
// request pool has grown to the live set (TestRoundTripZeroAllocs); a
// regression here silently reintroduces GC pressure proportional to
// simulated cycles.
func TestEdgePathZeroAllocs(t *testing.T) {
	c := newEdgeController(t, 8, 2)
	fillQueues(c, 0, 8)
	// Warm one edge so any lazily-sized scratch reaches steady state.
	c.Tick(0)
	now := c.NextTickAt()
	allocs := testing.AllocsPerRun(100, func() {
		if now < dram.Horizon {
			c.Tick(now)
			now = c.NextTickAt()
		}
	})
	if allocs != 0 {
		t.Errorf("edge path allocates %.1f times per tick, want 0", allocs)
	}
}

// TestEdgePathZeroAllocsBankGroups re-pins the same property with the
// DDR4 pack active: bank groups (tCCD_L/tCCD_S spacing) and the larger
// bank count exercise the grouped branch of CanIssue/CommandReadyAt,
// which must stay on the allocation-free path too.
func TestEdgePathZeroAllocsBankGroups(t *testing.T) {
	cfg := DefaultConfig(8, 2)
	tm, err := dram.PresetTiming(dram.DDR4)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dram.PresetGeometry(dram.DDR4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Timing = tm
	cfg.Geometry = g
	c, err := NewController(cfg, benchFRFCFS{})
	if err != nil {
		t.Fatal(err)
	}
	fillQueues(c, 0, 8)
	c.Tick(0)
	now := c.NextTickAt()
	allocs := testing.AllocsPerRun(100, func() {
		if now < dram.Horizon {
			c.Tick(now)
			now = c.NextTickAt()
		}
	})
	if allocs != 0 {
		t.Errorf("bank-grouped edge path allocates %.1f times per tick, want 0", allocs)
	}
}

// TestRoundTripZeroAllocs extends the gate from the edge path to a
// read's whole life: enqueue into a pooled Request, arbitration, issue,
// completion, the owner's indexed notification, and the request's
// return to the pool. After warm-up the round trip allocates nothing.
func TestRoundTripZeroAllocs(t *testing.T) {
	c := newEdgeController(t, 4, 2)
	g := c.cfg.Geometry
	done := 0
	owner := CompleteFunc(func(_, _ int64) { done++ })
	now, i := int64(0), 0
	roundTrip := func() {
		loc := dram.Location{Channel: i % g.Channels, Bank: (i / 2) % g.BanksPerChannel, Row: 1 + i%3}
		i++
		want := done + 1
		if !c.EnqueueRead(now, i%4, g.LineAddr(loc), owner, int64(i)) {
			t.Fatal("enqueue refused on an empty controller")
		}
		c.EnqueueWrite(now, i%4, g.LineAddr(loc)+1)
		for done < want {
			now = c.NextTickAt()
			c.Tick(now)
		}
	}
	for k := 0; k < 50; k++ {
		roundTrip()
	}
	allocs := testing.AllocsPerRun(100, roundTrip)
	if allocs != 0 {
		t.Errorf("enqueue→complete round trip allocates %.1f times, want 0", allocs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCompleteFinishedDeterministicOrder is the regression test for the
// completion-order fix: the in-flight buffer's internal order is
// scrambled by swap-removal, so same-cycle completions must notify their
// owners sorted by (CompleteAt, then arrival ID) — never by buffer
// position. Anything downstream of the completions (MSHR frees,
// the IDs assigned to requests enqueued from inside a callback) depends
// on this order being a function of the schedule, not of slice layout.
func TestCompleteFinishedDeterministicOrder(t *testing.T) {
	c := newEdgeController(t, 4, 1)
	var fired []uint64
	mk := func(id uint64, at int64) *Request {
		return &Request{
			ID:         id,
			Thread:     int(id) % 4,
			IsWrite:    true, // writes skip read-side stats bookkeeping
			CompleteAt: at,
			Owner:      CompleteFunc(func(tag, _ int64) { fired = append(fired, uint64(tag)) }),
			Tag:        int64(id),
		}
	}
	// Buffer layout deliberately scrambled: neither CompleteAt- nor
	// ID-sorted, with two same-cycle clusters (cycle 5 and cycle 7) and
	// one not-yet-due request that must survive untouched.
	inFlight := &c.inFlight
	*inFlight = append((*inFlight)[:0],
		mk(9, 7), mk(2, 5), mk(30, 900), mk(7, 5), mk(1, 7), mk(4, 3),
	)
	c.completeFinished(10)
	want := []uint64{4, 2, 7, 1, 9}
	if len(fired) != len(want) {
		t.Fatalf("fired %d callbacks (%v), want %d (%v)", len(fired), fired, len(want), want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("completion order = %v, want %v (CompleteAt, then ID)", fired, want)
		}
	}
	if len(*inFlight) != 1 || (*inFlight)[0].ID != 30 {
		t.Fatalf("in-flight after retirement = %v, want only request 30", *inFlight)
	}
}
