package memctrl_test

import (
	"testing"

	"stfm/internal/dram"
	"stfm/internal/memctrl"
	"stfm/internal/memctrl/policy"
)

func newTestController(t *testing.T, threads int) *memctrl.Controller {
	t.Helper()
	cfg := memctrl.DefaultConfig(threads, 1)
	c, err := memctrl.NewController(cfg, policy.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// addr builds a line address for a location in the default 1-channel
// geometry.
func addr(t *testing.T, c *memctrl.Controller, bank, row, col int) uint64 {
	t.Helper()
	return c.Config().Geometry.LineAddr(dram.Location{Bank: bank, Row: row, Column: col})
}

func TestControllerValidation(t *testing.T) {
	cfg := memctrl.DefaultConfig(0, 1)
	if _, err := memctrl.NewController(cfg, policy.NewFCFS()); err == nil {
		t.Error("zero threads should fail")
	}
	cfg = memctrl.DefaultConfig(2, 1)
	cfg.ReadBufferCap = 0
	if _, err := memctrl.NewController(cfg, policy.NewFCFS()); err == nil {
		t.Error("zero buffer cap should fail")
	}
	cfg = memctrl.DefaultConfig(2, 1)
	cfg.Geometry.BanksPerChannel = 5
	if _, err := memctrl.NewController(cfg, policy.NewFCFS()); err == nil {
		t.Error("invalid geometry should fail")
	}
}

func TestSingleReadUncontendedLatency(t *testing.T) {
	c := newTestController(t, 1)
	tm := c.Config().Timing
	var doneAt int64 = -1
	if !c.EnqueueRead(0, 0, addr(t, c, 0, 1, 0), memctrl.CompleteFunc(func(_, at int64) { doneAt = at }), 0) {
		t.Fatal("enqueue failed")
	}
	c.Drain(0)
	// Closed bank: activate + read; round trip = tRCD+tCL+BL+overhead
	// = 200 cycles (the paper's "closed" case). The first command can
	// only issue on the DRAM clock edge after arrival.
	want := tm.ClosedLatency() + tm.BurstCycles + tm.RoundTripOverhead
	if doneAt != want {
		t.Errorf("read completed at %d, want %d", doneAt, want)
	}
	st := c.ThreadStats(0)
	if st.ReadsServiced != 1 || st.RowClosed != 1 {
		t.Errorf("stats = %+v, want 1 read / 1 row-closed", st)
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	c := newTestController(t, 1)
	var hitAt, confAt int64
	c.EnqueueRead(0, 0, addr(t, c, 0, 1, 0), nil, 0)
	c.Drain(0)

	// Same row again: a hit.
	start := int64(1000)
	c.EnqueueRead(start, 0, addr(t, c, 0, 1, 1), memctrl.CompleteFunc(func(_, at int64) { hitAt = at - start }), 0)
	c.Drain(start)

	// Different row in the same bank: a conflict.
	start2 := int64(10000)
	c.EnqueueRead(start2, 0, addr(t, c, 0, 2, 0), memctrl.CompleteFunc(func(_, at int64) { confAt = at - start2 }), 0)
	c.Drain(start2)

	if hitAt >= confAt {
		t.Errorf("hit latency %d should beat conflict latency %d", hitAt, confAt)
	}
	st := c.ThreadStats(0)
	if st.RowHits != 1 || st.RowConflicts != 1 {
		t.Errorf("outcome stats = %+v", st)
	}
}

func TestReadBufferCapacity(t *testing.T) {
	cfg := memctrl.DefaultConfig(1, 1)
	cfg.ReadBufferCap = 4
	c, err := memctrl.NewController(cfg, policy.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !c.EnqueueRead(0, 0, uint64(i), nil, 0) {
			t.Fatalf("enqueue %d refused below capacity", i)
		}
	}
	if c.EnqueueRead(0, 0, 99, nil, 0) {
		t.Error("enqueue beyond ReadBufferCap accepted")
	}
	if !c.CanAcceptWrite() {
		t.Error("write buffer should still accept")
	}
	c.Drain(0)
	if !c.CanAcceptRead() {
		t.Error("buffer should drain")
	}
}

func TestWritesDoNotBlockReads(t *testing.T) {
	c := newTestController(t, 1)
	var readDone int64 = -1
	// Bury the controller in writes to other banks, then issue a read.
	for i := 0; i < 16; i++ {
		c.EnqueueWrite(0, 0, addr(t, c, i%8, 3, i))
	}
	c.EnqueueRead(0, 0, addr(t, c, 0, 1, 0), memctrl.CompleteFunc(func(_, at int64) { readDone = at }), 0)
	end := c.Drain(0)
	if readDone < 0 {
		t.Fatal("read never completed")
	}
	// The read must finish well before everything drains.
	if readDone >= end {
		t.Error("read was not prioritized over writes")
	}
	if got := c.ThreadStats(0).WritesServiced; got != 16 {
		t.Errorf("writes serviced = %d, want 16", got)
	}
}

func TestWriteBufferFullForcesDrain(t *testing.T) {
	cfg := memctrl.DefaultConfig(1, 1)
	cfg.WriteBufferCap = 4
	cfg.WriteDrainHigh = 3
	cfg.WriteDrainLow = 1
	c, err := memctrl.NewController(cfg, policy.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if !c.EnqueueWrite(0, 0, addr(t, c, i%4, 1, i)) {
			t.Fatalf("write %d refused", i)
		}
	}
	if c.EnqueueWrite(0, 0, addr(t, c, 7, 1, 0)) {
		t.Error("write beyond cap accepted")
	}
	// Keep a steady stream of reads; the writes must still drain.
	now := int64(0)
	for c.QueuedWrites() > cfg.WriteDrainLow && now < 1_000_000 {
		c.EnqueueRead(now, 0, addr(t, c, 1, 1, int(now)%256), nil, 0)
		c.Tick(now)
		now++
	}
	if c.QueuedWrites() > cfg.WriteDrainLow {
		t.Error("full write buffer never drained to the low watermark under read pressure")
	}
}

func TestPerThreadViewCounters(t *testing.T) {
	c := newTestController(t, 3)
	if c.HasQueued(1) {
		t.Error("no requests queued yet")
	}
	c.EnqueueRead(0, 1, addr(t, c, 0, 1, 0), nil, 0)
	c.EnqueueRead(0, 1, addr(t, c, 3, 1, 0), nil, 0)
	c.EnqueueRead(0, 2, addr(t, c, 3, 2, 0), nil, 0)
	if !c.HasQueued(1) || !c.HasQueued(2) || c.HasQueued(0) {
		t.Error("HasQueued mismatch")
	}
	if got := c.QueuedBanks(1); got != 2 {
		t.Errorf("QueuedBanks(1) = %d, want 2", got)
	}
	if got := c.QueuedRequests(1); got != 2 {
		t.Errorf("QueuedRequests(1) = %d, want 2", got)
	}
	if got := c.NumThreads(); got != 3 {
		t.Errorf("NumThreads = %d, want 3", got)
	}
	c.Drain(0)
	if c.HasQueued(1) || c.QueuedBanks(1) != 0 || c.InService(1) != 0 {
		t.Error("counters should return to zero after drain")
	}
}

// TestCommandSequenceLegality drives random requests through the
// controller and checks, via the command trace, that every bank
// observes a legal protocol: column accesses only to the open row,
// activates only on closed banks.
func TestCommandSequenceLegality(t *testing.T) {
	c := newTestController(t, 2)
	type bankState struct {
		open bool
		row  int
	}
	state := make([]bankState, 8)
	violations := 0
	c.CommandTrace = func(now int64, ch int, cmd dram.Command, req *memctrl.Request) {
		b := &state[cmd.Bank]
		switch cmd.Kind {
		case dram.CmdActivate:
			if b.open {
				violations++
			}
			b.open, b.row = true, cmd.Row
		case dram.CmdPrecharge:
			if !b.open {
				violations++
			}
			b.open = false
		case dram.CmdRead, dram.CmdWrite:
			if !b.open || b.row != cmd.Row {
				violations++
			}
		}
	}
	rng := uint64(42)
	next := func(n int) int {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int(rng % uint64(n))
	}
	completions := 0
	enqueued := 0
	now := int64(0)
	for now < 400_000 {
		if enqueued < 300 && now%70 == 0 && c.CanAcceptRead() {
			a := addr(t, c, next(8), next(16), next(256))
			if c.EnqueueRead(now, next(2), a, memctrl.CompleteFunc(func(_, _ int64) { completions++ }), 0) {
				enqueued++
			}
		}
		if enqueued < 300 && now%110 == 0 && c.CanAcceptWrite() {
			c.EnqueueWrite(now, next(2), addr(t, c, next(8), next(16), next(256)))
		}
		c.Tick(now)
		now++
	}
	c.Drain(now)
	if violations != 0 {
		t.Errorf("%d protocol violations", violations)
	}
	if completions != enqueued {
		t.Errorf("%d of %d reads completed", completions, enqueued)
	}
}

// TestRowReservation checks that a row opened for a request is not
// closed by another thread before the opener's column access, even
// under a policy that prefers the other thread.
func TestRowReservation(t *testing.T) {
	cfg := memctrl.DefaultConfig(2, 1)
	c, err := memctrl.NewController(cfg, policy.NewFCFS())
	if err != nil {
		t.Fatal(err)
	}
	sequence := []dram.CommandKind{}
	c.CommandTrace = func(now int64, ch int, cmd dram.Command, req *memctrl.Request) {
		if cmd.Bank == 0 {
			sequence = append(sequence, cmd.Kind)
		}
	}
	// Older request of thread 0 to row 1 (will activate first), then a
	// younger conflicting request of thread 1 that FCFS would favor
	// after... it is younger, so FCFS keeps thread 0 first anyway;
	// instead check the trace: ACT must be followed by a column access
	// before any PRE.
	c.EnqueueRead(0, 0, addr(t, c, 0, 1, 0), nil, 0)
	c.EnqueueRead(0, 1, addr(t, c, 0, 2, 0), nil, 0)
	c.Drain(0)
	sawAct := false
	for _, k := range sequence {
		if k == dram.CmdActivate {
			sawAct = true
		}
		if k == dram.CmdPrecharge && sawAct {
			// The precharge must come after the first request's read.
			break
		}
	}
	// Verify ordering: first three commands must be ACT, RD (row 1),
	// then PRE for the conflicting row.
	if len(sequence) < 4 || sequence[0] != dram.CmdActivate || sequence[1] != dram.CmdRead ||
		sequence[2] != dram.CmdPrecharge || sequence[3] != dram.CmdActivate {
		t.Errorf("command sequence = %v, want [ACT RD PRE ACT ...]", sequence)
	}
}

// TestMergeOrderAcrossChannels pins the completion order of the one
// in-flight list: requests on different channels that complete in the
// same cycle must notify their owners in (CompleteAt, then arrival ID)
// order. Channel 1 gets every odd (older) ID and channel 0 every even
// one, so each lockstep issue edge appends channel 0's younger request
// to the in-flight list ahead of channel 1's older one; firing in list
// order would notify the younger request first and fail.
func TestMergeOrderAcrossChannels(t *testing.T) {
	cfg := memctrl.DefaultConfig(2, 2)
	c, err := memctrl.NewController(cfg, policy.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	type fire struct{ at, id, ch int64 }
	var fired []fire
	// Tags mirror the controller's arrival IDs, which count enqueues
	// from 1: channel 1 gets 1,3,5,7 and channel 0 gets 2,4,6,8.
	var tag int64
	for bank := 0; bank < 4; bank++ {
		for _, ch := range []int{1, 0} {
			ch := int64(ch)
			tag++
			line := cfg.Geometry.LineAddr(dram.Location{Channel: int(ch), Bank: bank, Row: 1})
			owner := memctrl.CompleteFunc(func(id, at int64) { fired = append(fired, fire{at, id, ch}) })
			if !c.EnqueueRead(0, int(ch), line, owner, tag) {
				t.Fatal("enqueue failed")
			}
		}
	}
	c.Drain(0)
	if len(fired) != 8 {
		t.Fatalf("fired %d completions, want 8", len(fired))
	}
	crossChannel := false
	for i := 1; i < len(fired); i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || (a.at == b.at && a.id > b.id) {
			t.Fatalf("completion order %v is not (CompleteAt, ID) order", fired)
		}
		if a.at == b.at && a.ch != b.ch {
			crossChannel = true
		}
	}
	if !crossChannel {
		t.Fatalf("no same-cycle completions across channels in %v; the test no longer exercises the merge", fired)
	}
}
