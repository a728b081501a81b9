package cpu

import (
	"fmt"
	"sort"

	"stfm/internal/trace"
)

// This file implements checkpoint support for the core model
// (DESIGN.md §17). The window is serialized entry by entry, oldest
// first; the tail entry and the unissued list are stored as window
// positions (every unissued entry is in the window: it was created
// there and commit cannot retire an un-completed memory entry). The
// completion of an in-flight load needs nothing beyond its entry's
// issue sequence number — the tag its memory port hands back — so the
// ring layout and the seq index are rebuilt on restore.

// WinEntrySnapshot is the serialized form of one window entry.
type WinEntrySnapshot struct {
	Compute int64  `json:"compute"`
	HasMem  bool   `json:"hasMem"`
	MemDone bool   `json:"memDone"`
	L2Miss  bool   `json:"l2Miss"`
	Issued  bool   `json:"issued"`
	Addr    uint64 `json:"addr"`
	Chain   int    `json:"chain"`
	Dep     bool   `json:"dep"`
	Seq     int64  `json:"seq"`
}

// CoreState is the serialized mutable state of a Core.
type CoreState struct {
	Window    []WinEntrySnapshot `json:"window"`
	Occupancy int                `json:"occupancy"`

	Fetching  bool         `json:"fetching"`
	CurAccess trace.Access `json:"curAccess"`
	GapLeft   int64        `json:"gapLeft"`
	// TailIdx is the window index of the open tail entry, or -1.
	TailIdx    int  `json:"tailIdx"`
	StreamDone bool `json:"streamDone"`

	// Unissued holds window indices of loads awaiting issue, in retry
	// order.
	Unissued     []int `json:"unissued"`
	StoreBlocked bool  `json:"storeBlocked"`
	FetchedMem   bool  `json:"fetchedMem"`
	ChainBusy    []int `json:"chainBusy"`

	Committed int64 `json:"committed"`
	MemStall  int64 `json:"memStall"`
	StallAny  int64 `json:"stallAny"`
	Cycles    int64 `json:"cycles"`
	DRAMLoads int64 `json:"dramLoads"`
	IssueSeq  int64 `json:"issueSeq"`

	NextAt       int64 `json:"nextAt"`
	Settled      int64 `json:"settled"`
	IdleHasWork  bool  `json:"idleHasWork"`
	IdleMemStall bool  `json:"idleMemStall"`
}

// SaveState captures the core's mutable state. The core must be flushed
// (FlushIdle) to the snapshot cycle first. A core in a steady-compute
// stretch is then saved with NextAt at that cycle: the stretch itself is
// not part of the snapshot, and ticking a steady core on a cycle it
// skipped does exactly what the skip would have done, so the restored
// core ticks at once and recomputes the same stretch.
func (c *Core) SaveState() CoreState {
	st := CoreState{
		Window:       make([]WinEntrySnapshot, c.n),
		Occupancy:    c.occupancy,
		Fetching:     c.fetching,
		CurAccess:    c.curAccess,
		GapLeft:      c.gapLeft,
		TailIdx:      -1,
		StreamDone:   c.streamDone,
		StoreBlocked: c.storeBlocked,
		FetchedMem:   c.fetchedMem,
		ChainBusy:    append([]int(nil), c.chainBusy...),
		Committed:    c.committed,
		MemStall:     c.memStall,
		StallAny:     c.stallAny,
		Cycles:       c.cycles,
		DRAMLoads:    c.dramLoads,
		IssueSeq:     c.issueSeq,
		NextAt:       c.nextAt,
		Settled:      c.settled,
		IdleHasWork:  c.idleHasWork,
		IdleMemStall: c.idleMemStall,
	}
	for i := range st.Window {
		e := &c.win[c.ring(i)]
		st.Window[i] = WinEntrySnapshot{
			Compute: e.compute, HasMem: e.hasMem, MemDone: e.memDone,
			L2Miss: e.l2Miss, Issued: e.issued, Addr: e.addr,
			Chain: e.chain, Dep: e.dep, Seq: e.seq,
		}
	}
	if c.steady {
		st.NextAt = c.settled
	}
	if c.tail >= 0 {
		st.TailIdx = c.position(c.tail)
	}
	for _, i := range c.unissued {
		st.Unissued = append(st.Unissued, c.position(int(i)))
	}
	return st
}

// position converts a ring index to a window position (0 = oldest).
func (c *Core) position(ring int) int {
	p := ring - c.head
	if p < 0 {
		p += len(c.win)
	}
	return p
}

// RestoreState overwrites the core's mutable state with a snapshot.
// The window is laid out from ring index 0 and the seq index of its
// in-flight loads is rebuilt, so the memory ports' restored tags
// resolve exactly as they did in the original run.
func (c *Core) RestoreState(st CoreState) error {
	if len(st.Window) > len(c.win) {
		return fmt.Errorf("cpu: snapshot window has %d entries, ring holds %d", len(st.Window), len(c.win))
	}
	if st.TailIdx < -1 || st.TailIdx >= len(st.Window) {
		return fmt.Errorf("cpu: snapshot tail index %d out of range for window of %d", st.TailIdx, len(st.Window))
	}
	if len(st.Unissued) > cap(c.unissued) {
		return fmt.Errorf("cpu: snapshot has %d unissued loads, window holds %d", len(st.Unissued), cap(c.unissued))
	}
	for _, idx := range st.Unissued {
		if idx < 0 || idx >= len(st.Window) {
			return fmt.Errorf("cpu: snapshot unissued index %d out of range for window of %d", idx, len(st.Window))
		}
	}
	for i := range c.win {
		c.win[i] = winEntry{}
	}
	for i, e := range st.Window {
		c.win[i] = winEntry{
			compute: e.Compute, hasMem: e.HasMem, memDone: e.MemDone,
			l2Miss: e.L2Miss, issued: e.Issued, addr: e.Addr,
			chain: e.Chain, dep: e.Dep, seq: e.Seq,
		}
	}
	c.head = 0
	c.n = len(st.Window)
	for i := range c.bySeq {
		c.bySeq[i] = 0
	}
	for i := 0; i < c.n; i++ {
		e := &c.win[i]
		if !e.inFlight() {
			continue
		}
		if e.seq <= 0 || e.seq > st.IssueSeq {
			return fmt.Errorf("cpu: snapshot in-flight load has issue seq %d outside (0, %d]", e.seq, st.IssueSeq)
		}
		k := e.seq % int64(len(c.bySeq))
		if o := &c.win[c.bySeq[k]]; o != e && o.inFlight() && o.seq%int64(len(c.bySeq)) == k {
			return fmt.Errorf("cpu: snapshot in-flight loads %d and %d collide in the seq index", o.seq, e.seq)
		}
		c.bySeq[k] = int32(i)
	}
	c.unissued = c.unissued[:0]
	for _, idx := range st.Unissued {
		c.unissued = append(c.unissued, int32(idx))
	}
	c.occupancy = st.Occupancy
	c.fetching = st.Fetching
	c.curAccess = st.CurAccess
	c.gapLeft = st.GapLeft
	c.tail = st.TailIdx
	c.streamDone = st.StreamDone
	c.storeBlocked = st.StoreBlocked
	c.fetchedMem = st.FetchedMem
	c.chainBusy = append([]int(nil), st.ChainBusy...)
	c.committed = st.Committed
	c.memStall = st.MemStall
	c.stallAny = st.StallAny
	c.cycles = st.Cycles
	c.dramLoads = st.DRAMLoads
	c.issueSeq = st.IssueSeq
	c.nextAt = st.NextAt
	c.settled = st.Settled
	c.steady = false
	c.idleHasWork = st.IdleHasWork
	c.idleMemStall = st.IdleMemStall
	return nil
}

// InFlightSeqs returns the issue sequence numbers of the core's
// in-flight loads (issued, not yet complete), in ascending order —
// i.e. in the order the loads were accepted by the memory port.
func (c *Core) InFlightSeqs() []int64 {
	var seqs []int64
	for i := 0; i < c.n; i++ {
		if e := &c.win[c.ring(i)]; e.inFlight() {
			seqs = append(seqs, e.seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs
}

// CheckInFlight returns nil when tag names one of the core's in-flight
// loads, and an error otherwise — a checkpoint/component mismatch the
// caller must surface before any completion can resolve the tag.
func (c *Core) CheckInFlight(tag int64) error {
	if tag > 0 {
		if e := &c.win[c.bySeq[tag%int64(len(c.bySeq))]]; e.seq == tag && e.inFlight() {
			return nil
		}
	}
	return fmt.Errorf("cpu: core %d has no in-flight load with issue seq %d", c.id, tag)
}
