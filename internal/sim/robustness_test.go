package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"stfm/internal/dram"
	"stfm/internal/trace"
)

// TestRunContextCanceledReturnsPartialResult: a canceled context stops
// the run at the next event boundary, and the returned Result is a
// valid partial result — the cycles simulated so far, with unfinished
// threads marked Truncated.
func TestRunContextCanceledReturnsPartialResult(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 2)
	cfg.InstrTarget = 1_000_000
	sys, err := NewSystem(cfg, profilesByName(t, "mcf", "libquantum"))
	if err != nil {
		t.Fatal(err)
	}
	// Simulate some history first so the partial result has substance.
	for i := 0; i < 5000; i++ {
		sys.Tick()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sys.RunContext(ctx)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil {
		t.Fatal("canceled run must still return the partial result")
	}
	if res.TotalCycles != 5000 {
		t.Errorf("partial result covers %d cycles, want the 5000 simulated", res.TotalCycles)
	}
	var committed int64
	for i, th := range res.Threads {
		if !th.Truncated {
			t.Errorf("thread %d not marked Truncated in a canceled run", i)
		}
		committed += th.Instructions
	}
	if committed == 0 {
		t.Error("partial result carries no committed instructions")
	}
}

// TestRunContextDeadlineExceeded: an already-expired deadline aborts
// with ErrDeadline (not ErrCanceled), still returning a Result.
func TestRunContextDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	cfg := DefaultConfig(PolicyFRFCFS, 1)
	cfg.InstrTarget = 100_000
	res, err := RunContext(ctx, cfg, profilesByName(t, "mcf"))
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Error("deadline expiry must not also match ErrCanceled")
	}
	if res == nil || len(res.Threads) != 1 || !res.Threads[0].Truncated {
		t.Errorf("want a partial result with the thread truncated, got %+v", res)
	}
}

// TestWatchdogAbortsLivelock: with tRCD pushed beyond any reachable
// cycle, activates issue but no column command ever becomes ready —
// commands and commits both cease once the queues wedge. The watchdog
// must diagnose this as a StallError orders of magnitude before the
// cycle cap, with a dump describing every thread and the stuck queues.
func TestWatchdogAbortsLivelock(t *testing.T) {
	tm := dram.DefaultTiming()
	tm.RCD = 1 << 40 // rows "open" astronomically late: a livelock
	cfg := DefaultConfig(PolicyFRFCFS, 2)
	cfg.Timing = &tm
	cfg.InstrTarget = 100_000 // default cap would be 8M cycles
	cfg.WatchdogCycles = 50_000
	res, err := RunContext(context.Background(), cfg, profilesByName(t, "mcf", "libquantum"))
	var se *StallError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StallError", err)
	}
	if se.Window != 50_000 {
		t.Errorf("StallError window %d, want the configured 50000", se.Window)
	}
	if res == nil || res.TotalCycles >= 1_000_000 {
		t.Fatalf("watchdog fired at cycle %d; want well before the 8M-cycle cap",
			res.TotalCycles)
	}
	if len(se.Threads) != 2 {
		t.Errorf("dump describes %d threads, want 2", len(se.Threads))
	}
	if se.Queues.QueuedReads+se.Queues.QueuedWrites+se.Queues.InFlight == 0 {
		t.Error("dump shows empty queues; a wedged run should have stuck requests")
	}
	if msg := se.Error(); !strings.Contains(msg, "no instruction committed and no DRAM command issued") {
		t.Errorf("diagnostic message missing the stall description:\n%s", msg)
	}
}

// TestWatchdogSeesFastForwardedCommits: a core in a steady-compute
// stretch commits lazily (cpu.Core.FlushIdle), so the watchdog must
// settle every core before it reads the commit counts. povray's compute
// gaps (MPKI 0.09) run to thousands of cycles with no DRAM command, far
// longer than a 1000-cycle window; an unsettled read would see no
// progress and abort a healthy run with a *StallError.
func TestWatchdogSeesFastForwardedCommits(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 1)
	cfg.InstrTarget = 200_000
	cfg.WatchdogCycles = 1000
	profs := profilesByName(t, "povray")
	res, err := Run(cfg, profs)
	if err != nil {
		t.Fatalf("healthy compute-bound run aborted: %v", err)
	}
	cfg.DenseTick = true
	dense, err := Run(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, "event vs dense", res, dense)
}

// TestCheckInvariantsSmokeAllPolicies: the self-checks hold on every
// implemented policy at a watchdog cadence tight enough to exercise
// them many times per run.
func TestCheckInvariantsSmokeAllPolicies(t *testing.T) {
	profs := profilesByName(t, "mcf", "libquantum", "GemsFDTD", "astar")
	for _, pol := range ExtendedPolicies() {
		cfg := DefaultConfig(pol, 4)
		cfg.InstrTarget = 20_000
		cfg.CheckInvariants = true
		cfg.WatchdogCycles = 10_000
		if _, err := Run(cfg, profs); err != nil {
			t.Errorf("%s: invariant check failed: %v", pol, err)
		}
	}
}

// TestMaxCyclesTruncationEventStepping: MaxCycles truncation under
// event-driven stepping lands exactly on the cap (the event jump is
// clamped) and coexists with the invariant checks.
func TestMaxCyclesTruncationEventStepping(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 2)
	cfg.InstrTarget = 10_000_000
	cfg.MaxCycles = 30_000
	cfg.CheckInvariants = true
	res, err := Run(cfg, profilesByName(t, "mcf", "h264ref"))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != 30_000 {
		t.Errorf("TotalCycles = %d, want exactly the 30000-cycle cap", res.TotalCycles)
	}
	for i, th := range res.Threads {
		if !th.Truncated {
			t.Errorf("thread %d not marked Truncated at the cap", i)
		}
	}
}

// TestStreamErrorSurfaced: a trace stream that fails mid-run must not
// masquerade as a short but clean trace — the run reports a
// *StreamError locating the bad record, alongside the partial result.
func TestStreamErrorSurfaced(t *testing.T) {
	cfg := DefaultConfig(PolicyFRFCFS, 1)
	cfg.InstrTarget = 1000
	cfg.Streams = []trace.Stream{
		trace.NewFileStream(strings.NewReader("5 L 4096 0 0\n3 L 8192 0 0\nGARBAGE\n")),
	}
	res, err := Run(cfg, profilesByName(t, "mcf"))
	var se *StreamError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *StreamError", err)
	}
	if se.Thread != 0 {
		t.Errorf("StreamError.Thread = %d, want 0", se.Thread)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error does not locate the bad record: %v", err)
	}
	if res == nil {
		t.Error("stream failure must still return the partial result")
	}
}

// TestDefaultConfigUsesCores: DefaultConfig seeds the channel count
// from the core count it is given (the documented auto-scaling), and
// leaves it workload-derived when cores is unknown.
func TestDefaultConfigUsesCores(t *testing.T) {
	if got, want := DefaultConfig(PolicyFRFCFS, 16).Channels, ChannelsFor(16); got != want {
		t.Errorf("DefaultConfig(_, 16).Channels = %d, want ChannelsFor(16) = %d", got, want)
	}
	if got := DefaultConfig(PolicyFRFCFS, 0).Channels; got != 0 {
		t.Errorf("DefaultConfig(_, 0).Channels = %d, want 0 (defer to workload size)", got)
	}
}

// TestNFQBadWeightsRejected: invalid NFQ shares surface as a
// constructor error instead of a panic deep inside the scheduler.
func TestNFQBadWeightsRejected(t *testing.T) {
	cfg := DefaultConfig(PolicyNFQ, 2)
	cfg.NFQWeights = []float64{1, -1}
	if _, err := NewSystem(cfg, profilesByName(t, "mcf", "libquantum")); err == nil {
		t.Error("negative NFQ share must be rejected")
	}
}
