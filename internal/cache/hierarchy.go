package cache

import (
	"fmt"

	"stfm/internal/cpu"
	"stfm/internal/memctrl"
)

// Hierarchy is one core's private L1+L2 cache stack in front of the
// shared DRAM controller, with MSHR-based non-blocking misses
// (same-line merging) and dirty writebacks. It implements the cpu
// package's Memory port, and memctrl.Completer for its DRAM fills.
//
// Nothing on the access path allocates once warm: MSHRs are a fixed
// slab whose slot index is the tag of the slot's DRAM read, each slot
// keeps its waiter-tag slice across misses, and hit completions carry
// only the load's tag.
type Hierarchy struct {
	thread int
	l1     *Cache
	l2     *Cache
	ctrl   *memctrl.Controller
	sink   cpu.LoadSink

	// mshr is the MSHR slab; live lists the slots of in-flight misses
	// (unordered) and free the idle ones.
	mshr []mshr
	live []int32
	free []int32

	completions []completion
	pendingWB   []uint64

	dramLoads int64
}

// mshr is one in-flight L2 miss.
type mshr struct {
	line  uint64
	write bool
	// tags are the issue tags of the loads waiting on the fill, in
	// registration order (the order the fill completes them in).
	tags []int64
}

// completion is a pending cache-hit completion of the load tagged tag.
type completion struct {
	at  int64
	tag int64
}

// NewHierarchy builds a private L1/L2 pair for the given hardware
// thread over the shared controller. mshrs bounds outstanding L2
// misses (64 in the paper's Table 2).
func NewHierarchy(thread int, l1cfg, l2cfg Config, mshrs int, ctrl *memctrl.Controller) (*Hierarchy, error) {
	if mshrs <= 0 {
		return nil, fmt.Errorf("cache: mshrs must be positive, got %d", mshrs)
	}
	l1, err := New(l1cfg)
	if err != nil {
		return nil, fmt.Errorf("cache: L1: %w", err)
	}
	l2, err := New(l2cfg)
	if err != nil {
		return nil, fmt.Errorf("cache: L2: %w", err)
	}
	h := &Hierarchy{
		thread: thread,
		l1:     l1,
		l2:     l2,
		ctrl:   ctrl,
		mshr:   make([]mshr, mshrs),
		live:   make([]int32, 0, mshrs),
		free:   make([]int32, 0, mshrs),
	}
	h.resetMSHRs()
	return h, nil
}

// resetMSHRs marks every MSHR slot idle.
func (h *Hierarchy) resetMSHRs() {
	h.live = h.live[:0]
	h.free = h.free[:0]
	for s := len(h.mshr) - 1; s >= 0; s-- {
		h.free = append(h.free, int32(s))
	}
}

// SetLoadSink implements cpu.Memory.
func (h *Hierarchy) SetLoadSink(sink cpu.LoadSink) { h.sink = sink }

// L1 exposes the L1 cache for statistics.
func (h *Hierarchy) L1() *Cache { return h.l1 }

// L2 exposes the L2 cache for statistics.
func (h *Hierarchy) L2() *Cache { return h.l2 }

// DRAMLoads returns the number of load requests sent to DRAM (L2
// misses, after MSHR merging).
func (h *Hierarchy) DRAMLoads() int64 { return h.dramLoads }

// CheckInvariants verifies the MSHR slab's accounting: every slot is
// exactly one of live or free, and no two live slots track the same
// line. It observes only, so a checked run stays bit-identical.
func (h *Hierarchy) CheckInvariants() error {
	if len(h.live)+len(h.free) != len(h.mshr) {
		return fmt.Errorf("cache: thread %d MSHR slab: %d live + %d free != %d slots", h.thread, len(h.live), len(h.free), len(h.mshr))
	}
	seen := make(map[int32]bool, len(h.mshr))
	lines := make(map[uint64]bool, len(h.live))
	for _, s := range h.live {
		if lines[h.mshr[s].line] {
			return fmt.Errorf("cache: thread %d has two MSHRs for line %#x", h.thread, h.mshr[s].line)
		}
		lines[h.mshr[s].line] = true
		seen[s] = true
	}
	for _, s := range h.free {
		if seen[s] {
			return fmt.Errorf("cache: thread %d MSHR slot %d is both live and free", h.thread, s)
		}
		seen[s] = true
	}
	if len(seen) != len(h.mshr) {
		return fmt.Errorf("cache: thread %d MSHR slab lists a slot twice", h.thread)
	}
	return nil
}

// OutstandingMisses returns the number of in-flight L2 misses.
func (h *Hierarchy) OutstandingMisses() int { return len(h.live) }

// Load issues a cache-line read for the load tagged tag. If accepted,
// the bound sink's LoadDone(tag, at) runs exactly once when the data is
// available; l2Miss reports whether the access goes to DRAM (the
// classification the core's stall accounting needs). A false return
// means MSHRs or the DRAM request buffer are exhausted; the caller
// should retry next cycle.
func (h *Hierarchy) Load(now int64, lineAddr uint64, tag int64) (accepted, l2Miss bool) {
	if h.l1.Access(lineAddr, false) {
		h.complete(now+h.l1.cfg.Latency, tag)
		return true, false
	}
	if h.l2.Access(lineAddr, false) {
		h.fillL1(lineAddr, false)
		h.complete(now+h.l2.cfg.Latency, tag)
		return true, false
	}
	return h.miss(now, lineAddr, false, true, tag), true
}

// Store issues a cache-line write (write-allocate, write-back). Store
// misses fetch the line from DRAM but never block commit, so no load
// tag is registered. A false return means resources are
// exhausted and the access must be retried.
func (h *Hierarchy) Store(now int64, lineAddr uint64) (accepted bool) {
	if h.l1.Access(lineAddr, true) {
		return true
	}
	if h.l2.Access(lineAddr, true) {
		h.fillL1(lineAddr, true)
		return true
	}
	return h.miss(now, lineAddr, true, false, 0)
}

// miss handles an L2 miss: it merges into the line's in-flight MSHR or
// allocates a slot and sends the fill to DRAM. A load (waiter) registers
// its tag to be completed by the fill; a store only marks the line dirty.
func (h *Hierarchy) miss(now int64, lineAddr uint64, write, waiter bool, tag int64) bool {
	var m *mshr
	if s := h.lookup(lineAddr); s >= 0 {
		// MSHR merge: piggyback on the in-flight fill.
		m = &h.mshr[s]
		m.write = m.write || write
	} else {
		if len(h.free) == 0 {
			return false
		}
		// The slot the miss will take is the tag of its DRAM read.
		if !h.ctrl.EnqueueRead(now, h.thread, lineAddr, h, int64(h.free[len(h.free)-1])) {
			return false
		}
		m = h.takeSlot(lineAddr, write)
		h.dramLoads++
	}
	if waiter {
		m.tags = append(m.tags, tag)
	}
	return true
}

// takeSlot moves the top free MSHR slot to the live list and starts a
// miss for lineAddr in it, with no waiters yet.
func (h *Hierarchy) takeSlot(lineAddr uint64, write bool) *mshr {
	s := h.free[len(h.free)-1]
	h.free = h.free[:len(h.free)-1]
	h.live = append(h.live, s)
	m := &h.mshr[s]
	m.line = lineAddr
	m.write = write
	m.tags = m.tags[:0]
	return m
}

// lookup returns the MSHR slot of lineAddr's in-flight miss, or -1.
func (h *Hierarchy) lookup(lineAddr uint64) int32 {
	for _, s := range h.live {
		if h.mshr[s].line == lineAddr {
			return s
		}
	}
	return -1
}

// Complete implements memctrl.Completer: the DRAM fill for the MSHR slot
// tag arrived at cycle at. The line is installed in both levels, every
// merged load completes in registration order, and the slot is freed.
func (h *Hierarchy) Complete(tag, at int64) {
	s := int32(tag)
	for i, l := range h.live {
		if l == s {
			h.live[i] = h.live[len(h.live)-1]
			h.live = h.live[:len(h.live)-1]
			break
		}
	}
	m := &h.mshr[s]
	if victim, dirty := h.l2.Fill(m.line, m.write); dirty {
		h.writeback(at, victim)
	}
	h.fillL1(m.line, m.write)
	for _, t := range m.tags {
		h.sink.LoadDone(t, at)
	}
	h.free = append(h.free, s)
}

// fillL1 installs a line into L1, spilling dirty victims into L2.
func (h *Hierarchy) fillL1(lineAddr uint64, write bool) {
	victim, dirty := h.l1.Fill(lineAddr, write)
	if !dirty {
		return
	}
	if h.l2.Access(victim, true) {
		return
	}
	// The victim is no longer in L2 (non-inclusive corner); reinstall
	// it dirty, spilling L2's own victim to DRAM if needed.
	if v2, d2 := h.l2.Fill(victim, true); d2 {
		h.writeback(0, v2)
	}
}

func (h *Hierarchy) writeback(now int64, lineAddr uint64) {
	if !h.ctrl.EnqueueWrite(now, h.thread, lineAddr) {
		h.pendingWB = append(h.pendingWB, lineAddr)
	}
}

func (h *Hierarchy) complete(at, tag int64) {
	h.completions = append(h.completions, completion{at: at, tag: tag})
}

// Tick delivers due cache-hit completions and retries writebacks that
// found the DRAM write buffer full. It returns the hierarchy's event
// horizon: the earliest cycle a scheduled completion comes due, or
// Horizon when none is pending. Blocked writebacks do not contribute —
// the write buffer only drains on controller events, which the
// controller's own horizon tracks, and a failed retry is side-effect
// free.
func (h *Hierarchy) Tick(now int64) int64 {
	for i := 0; i < len(h.completions); {
		c := h.completions[i]
		if c.at > now {
			i++
			continue
		}
		h.completions[i] = h.completions[len(h.completions)-1]
		h.completions = h.completions[:len(h.completions)-1]
		h.sink.LoadDone(c.tag, now)
	}
	sent := 0
	for sent < len(h.pendingWB) && h.ctrl.EnqueueWrite(now, h.thread, h.pendingWB[sent]) {
		sent++
	}
	if sent > 0 {
		h.pendingWB = h.pendingWB[:copy(h.pendingWB, h.pendingWB[sent:])]
	}
	return h.NextEventAt()
}

// Horizon is the "no event scheduled" sentinel returned when the
// hierarchy has no pending completion. The value matches dram.Horizon.
const Horizon = int64(1) << 62

// NextEventAt returns the earliest pending completion time, or Horizon.
// The simulation queries it after ticking the cores, because cores
// schedule new cache-hit completions during their own tick — after
// this hierarchy's Tick for the cycle has already returned.
func (h *Hierarchy) NextEventAt() int64 {
	next := int64(Horizon)
	for i := range h.completions {
		if h.completions[i].at < next {
			next = h.completions[i].at
		}
	}
	return next
}
