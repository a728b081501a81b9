package cache

import (
	"testing"

	"stfm/internal/memctrl"
	"stfm/internal/memctrl/policy"
)

func newHierarchy(t *testing.T, mshrs int) (*Hierarchy, *memctrl.Controller) {
	t.Helper()
	ctrl, err := memctrl.NewController(memctrl.DefaultConfig(1, 1), policy.NewFRFCFS())
	if err != nil {
		t.Fatal(err)
	}
	h, err := NewHierarchy(0, L1Config(), L2Config(), mshrs, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	h.SetLoadSink(&funcSink{fns: map[int64]func(int64){}})
	return h, ctrl
}

// funcSink routes each load's completion to the callback registered for
// its tag, and fails loudly on a tag completed twice or never issued.
type funcSink struct {
	next int64
	fns  map[int64]func(at int64)
}

func (s *funcSink) LoadDone(tag, at int64) {
	fn, ok := s.fns[tag]
	if !ok {
		panic("cache test: completion for an unknown or already completed load tag")
	}
	delete(s.fns, tag)
	fn(at)
}

// load issues a tagged load through h whose completion runs done.
func load(h *Hierarchy, now int64, addr uint64, done func(at int64)) (accepted, l2Miss bool) {
	s := h.sink.(*funcSink)
	s.next++
	accepted, l2Miss = h.Load(now, addr, s.next)
	if accepted {
		s.fns[s.next] = done
	}
	return accepted, l2Miss
}

// step advances the controller and hierarchy together.
func step(h *Hierarchy, ctrl *memctrl.Controller, from, to int64) {
	for now := from; now < to; now++ {
		ctrl.Tick(now)
		h.Tick(now)
	}
}

func TestHierarchyValidation(t *testing.T) {
	ctrl, _ := memctrl.NewController(memctrl.DefaultConfig(1, 1), policy.NewFRFCFS())
	if _, err := NewHierarchy(0, L1Config(), L2Config(), 0, ctrl); err == nil {
		t.Error("zero MSHRs must fail")
	}
	if _, err := NewHierarchy(0, Config{SizeBytes: 100, Ways: 3, LineBytes: 64}, L2Config(), 4, ctrl); err == nil {
		t.Error("bad L1 config must fail")
	}
}

func TestMissGoesToDRAMThenHits(t *testing.T) {
	h, ctrl := newHierarchy(t, 8)
	var missAt, hitAt int64 = -1, -1
	accepted, l2miss := load(h, 0, 42, func(at int64) { missAt = at })
	if !accepted || !l2miss {
		t.Fatalf("cold load: accepted=%v l2miss=%v, want true/true", accepted, l2miss)
	}
	step(h, ctrl, 0, 2000)
	if missAt < 0 {
		t.Fatal("miss never completed")
	}
	if h.DRAMLoads() != 1 {
		t.Errorf("DRAM loads = %d, want 1", h.DRAMLoads())
	}

	accepted, l2miss = load(h, 2000, 42, func(at int64) { hitAt = at })
	if !accepted || l2miss {
		t.Fatalf("warm load should be a cache hit, got l2miss=%v", l2miss)
	}
	step(h, ctrl, 2000, 2100)
	if hitAt-2000 != L1Config().Latency {
		t.Errorf("L1 hit latency = %d, want %d", hitAt-2000, L1Config().Latency)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	h, ctrl := newHierarchy(t, 16)
	// Fill line 0, then sweep enough same-set lines through L1 to
	// evict it from L1 while it stays in the larger L2.
	done := 0
	load(h, 0, 0, func(int64) { done++ })
	step(h, ctrl, 0, 2000)

	l1sets := int64(L1Config().SizeBytes / L1Config().LineBytes / L1Config().Ways)
	for i := int64(1); i <= int64(L1Config().Ways); i++ {
		load(h, 2000, uint64(i*l1sets), func(int64) { done++ })
		step(h, ctrl, 2000, 2000+1)
		step(h, ctrl, 2001, 4000)
	}
	var hitAt int64 = -1
	acc, l2miss := load(h, 5000, 0, func(at int64) { hitAt = at })
	if !acc {
		t.Fatal("refused")
	}
	if l2miss {
		t.Fatal("line should still be in L2")
	}
	step(h, ctrl, 5000, 5100)
	if hitAt-5000 != L2Config().Latency {
		t.Errorf("L2 hit latency = %d, want %d", hitAt-5000, L2Config().Latency)
	}
}

func TestMSHRMerging(t *testing.T) {
	h, ctrl := newHierarchy(t, 8)
	completions := 0
	load(h, 0, 7, func(int64) { completions++ })
	load(h, 0, 7, func(int64) { completions++ }) // same line: merged
	if h.OutstandingMisses() != 1 {
		t.Fatalf("outstanding = %d, want 1 (merged)", h.OutstandingMisses())
	}
	step(h, ctrl, 0, 2000)
	if completions != 2 {
		t.Errorf("completions = %d, want 2", completions)
	}
	if h.DRAMLoads() != 1 {
		t.Errorf("DRAM loads = %d, want 1 after merge", h.DRAMLoads())
	}
}

func TestMSHRLimit(t *testing.T) {
	h, _ := newHierarchy(t, 2)
	ok1, _ := load(h, 0, 1, func(int64) {})
	ok2, _ := load(h, 0, 2, func(int64) {})
	ok3, _ := load(h, 0, 3, func(int64) {})
	if !ok1 || !ok2 {
		t.Fatal("first two misses must be accepted")
	}
	if ok3 {
		t.Error("third miss must be refused at MSHR limit 2")
	}
}

func TestStoreMissAllocatesWithoutBlocking(t *testing.T) {
	h, ctrl := newHierarchy(t, 8)
	if !h.Store(0, 99) {
		t.Fatal("store refused")
	}
	step(h, ctrl, 0, 2000)
	// The line must now be resident and dirty: evicting it later
	// produces a writeback.
	if _, l2miss := load(h, 2500, 99, func(int64) {}); l2miss {
		t.Error("store-allocated line should hit")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h, ctrl := newHierarchy(t, 64)
	// Dirty one line, then push enough conflicting lines through its
	// L2 set to evict it from both levels (L2 set stride = number of
	// L2 sets, and those addresses share its L1 set too).
	h.Store(0, 0)
	step(h, ctrl, 0, 3000)
	l2sets := int64(L2Config().SizeBytes / L2Config().LineBytes / L2Config().Ways)
	now := int64(3000)
	for i := int64(1); i <= int64(2*L2Config().Ways); i++ {
		i := i * l2sets
		for !try(h, now, uint64(i)) {
			now++
			ctrl.Tick(now)
			h.Tick(now)
		}
		now += 7
		ctrl.Tick(now)
		h.Tick(now)
	}
	// Drain everything, including in-flight bursts after the queues
	// empty.
	for q := 0; q < 3_000_000 && (h.OutstandingMisses() > 0 || ctrl.QueuedReads() > 0 || ctrl.QueuedWrites() > 0); q++ {
		now++
		ctrl.Tick(now)
		h.Tick(now)
	}
	for q := 0; q < 1000; q++ {
		now++
		ctrl.Tick(now)
		h.Tick(now)
	}
	if got := ctrl.ThreadStats(0).WritesServiced; got == 0 {
		t.Error("dirty eviction never produced a DRAM write")
	}
}

func try(h *Hierarchy, now int64, addr uint64) bool {
	acc, _ := load(h, now, addr, func(int64) {})
	return acc
}
