package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stfm/internal/experiments"
	"stfm/internal/sim"
)

// The recovery suite: crash the server at injected fault points mid-job
// and prove the contract of DESIGN.md §17 — after a restart over the
// same journal, no job is lost, no result is wrong (reflect.DeepEqual
// against an uninterrupted in-process run), and corrupt artifacts are
// quarantined instead of trusted.

// referenceResult runs cfg uninterrupted in-process.
func referenceResult(t *testing.T, cfg sim.Config, workload []string) *sim.Result {
	t.Helper()
	profs, err := experiments.Profiles(workload...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, profs)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// submitOne submits a single-workload job directly (no HTTP).
func submitOne(t *testing.T, srv *Server, cfg sim.Config, workload []string) string {
	t.Helper()
	resp, err := srv.Submit(JobRequest{Config: cfg, Workload: workload})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Jobs) != 1 {
		t.Fatalf("submit created %d jobs, want 1", len(resp.Jobs))
	}
	return resp.Jobs[0].ID
}

// waitCrashed polls until the chaos point has fired, then drains the
// crashed server (its worker is already dead, so this returns quickly).
func waitCrashed(t *testing.T, srv *Server, chaos *Chaos, point string, visits int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for chaos.Visits(point) < visits {
		if time.Now().After(deadline) {
			t.Fatalf("chaos point %s never reached visit %d", point, visits)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// waitServerDone polls the server directly until the job is terminal.
func waitServerDone(t *testing.T, srv *Server, id string) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info, ok := srv.Job(id)
		if !ok {
			t.Fatalf("job %s unknown to the server", id)
		}
		if info.Status.Terminal() {
			return info
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return JobInfo{}
}

func drainServer(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryCrashBeforeFirstCheckpoint: the worker dies at the very
// first checkpoint attempt, so nothing but the journal survives. The
// restarted server must re-run the job from scratch and produce the
// exact uninterrupted result.
func TestRecoveryCrashBeforeFirstCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(11)
	workload := []string{"mcf", "libquantum"}
	want := referenceResult(t, cfg, workload)

	chaos := NewChaos(ChaosRule{Point: "checkpoint.write", Visit: 1, Action: ActionCrash})
	srv1, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	id := submitOne(t, srv1, cfg, workload)
	waitCrashed(t, srv1, chaos, "checkpoint.write", 1)

	srv2, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone {
		t.Fatalf("recovered job finished %s (error %q), want done", info.Status, info.Error)
	}
	if !info.Recovered {
		t.Error("recovered job not marked Recovered")
	}
	if info.ResumedFromCycle != 0 {
		t.Errorf("job resumed from cycle %d; no checkpoint survived, want a from-scratch run", info.ResumedFromCycle)
	}
	rr, _ := srv2.Result(id)
	if !reflect.DeepEqual(rr.Result, want) {
		t.Error("recovered result differs from the uninterrupted run")
	}
}

// TestRecoveryResumesFromCheckpoint: two checkpoints persist before the
// crash. The restarted server must resume from the latest — visible as
// ResumedFromCycle — and still produce the bit-exact result, which is
// the service-level extension of the sim-layer equivalence gate.
func TestRecoveryResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(12)
	cfg.Policy = sim.PolicySTFM
	workload := []string{"mcf", "libquantum"}
	want := referenceResult(t, cfg, workload)

	chaos := NewChaos(ChaosRule{Point: "checkpoint.write", Visit: 3, Action: ActionCrash})
	srv1, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	id := submitOne(t, srv1, cfg, workload)
	waitCrashed(t, srv1, chaos, "checkpoint.write", 3)

	srv2, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone {
		t.Fatalf("recovered job finished %s (error %q), want done", info.Status, info.Error)
	}
	if !info.Recovered {
		t.Error("recovered job not marked Recovered")
	}
	if info.ResumedFromCycle != 80_000 {
		t.Errorf("job resumed from cycle %d, want 80000 (the second checkpoint)", info.ResumedFromCycle)
	}
	rr, _ := srv2.Result(id)
	if !reflect.DeepEqual(rr.Result, want) {
		t.Error("resumed result differs from the uninterrupted run")
	}
}

// TestRecoveryReplaysRetiredParallelKnob: journals written while
// sim.Config still had a "parallel" engine knob must keep replaying.
// The submit record's config gains "parallel": 4 (re-checksummed, as
// the old server wrote it); the restarted server must decode it, resume
// the job to done with the uninterrupted result, and keep the job's
// fingerprint.
func TestRecoveryReplaysRetiredParallelKnob(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(15)
	workload := []string{"mcf", "libquantum"}
	want := referenceResult(t, cfg, workload)

	chaos := NewChaos(ChaosRule{Point: "checkpoint.write", Visit: 3, Action: ActionCrash})
	srv1, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	id := submitOne(t, srv1, cfg, workload)
	before, _ := srv1.Job(id)
	waitCrashed(t, srv1, chaos, "checkpoint.write", 3)

	path := filepath.Join(dir, walName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	injected := 0
	for _, line := range strings.SplitAfter(string(data), "\n") {
		if line == "" {
			continue
		}
		rec, err := decodeWALLine(strings.TrimSuffix(line, "\n"))
		if err != nil {
			t.Fatal(err)
		}
		if rec.Type == walSubmit {
			line = injectParallel(t, line[sha256.Size*2+1:len(line)-1])
			injected++
		}
		out = append(out, line...)
	}
	if injected != 1 {
		t.Fatalf("rewrote %d submit records, want 1", injected)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone {
		t.Fatalf("recovered job finished %s (error %q), want done", info.Status, info.Error)
	}
	if info.ResumedFromCycle != 80_000 {
		t.Errorf("job resumed from cycle %d, want 80000 (the second checkpoint)", info.ResumedFromCycle)
	}
	if info.Fingerprint != before.Fingerprint {
		t.Errorf("fingerprint after replay = %s, want %s", info.Fingerprint, before.Fingerprint)
	}
	rr, _ := srv2.Result(id)
	if !reflect.DeepEqual(rr.Result, want) {
		t.Error("replayed result differs from the uninterrupted run")
	}
}

// injectParallel adds "parallel": 4 to a submit record's config and
// returns the re-checksummed journal line.
func injectParallel(t *testing.T, payload string) string {
	t.Helper()
	var rec map[string]json.RawMessage
	if err := json.Unmarshal([]byte(payload), &rec); err != nil {
		t.Fatal(err)
	}
	var config map[string]json.RawMessage
	if err := json.Unmarshal(rec["config"], &config); err != nil {
		t.Fatal(err)
	}
	config["parallel"] = json.RawMessage("4")
	var err error
	if rec["config"], err = json.Marshal(config); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:]) + " " + string(body) + "\n"
}

// TestRecoveryCorruptCheckpointQuarantined: the only persisted
// checkpoint is corrupt (injected bit flip before the write). Restore
// must reject it, quarantine the artifact as .corrupt, and fall back to
// a from-scratch run — recomputation, never a wrong result.
func TestRecoveryCorruptCheckpointQuarantined(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(13)
	workload := []string{"mcf", "libquantum"}
	want := referenceResult(t, cfg, workload)

	chaos := NewChaos(
		ChaosRule{Point: "checkpoint.write", Visit: 1, Action: ActionCorrupt},
		ChaosRule{Point: "checkpoint.write", Visit: 2, Action: ActionCrash},
	)
	srv1, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	id := submitOne(t, srv1, cfg, workload)
	waitCrashed(t, srv1, chaos, "checkpoint.write", 2)

	srv2, err := New(Options{Workers: 1, JournalDir: dir, CheckpointEvery: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone {
		t.Fatalf("recovered job finished %s (error %q), want done", info.Status, info.Error)
	}
	if info.ResumedFromCycle != 0 {
		t.Errorf("job resumed from cycle %d despite a corrupt checkpoint", info.ResumedFromCycle)
	}
	quarantined := filepath.Join(dir, "checkpoints", id+".ckpt.corrupt")
	if _, err := os.Stat(quarantined); err != nil {
		t.Errorf("corrupt checkpoint not quarantined: %v", err)
	}
	rr, _ := srv2.Result(id)
	if !reflect.DeepEqual(rr.Result, want) {
		t.Error("recovered result differs from the uninterrupted run")
	}
}

// TestRecoveryCrashDuringJournalAppend: the worker dies mid-append of
// the start record, leaving a torn journal line. Replay must truncate
// it silently and still recover the job from its submit record.
func TestRecoveryCrashDuringJournalAppend(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(14)
	workload := []string{"mcf", "libquantum"}
	want := referenceResult(t, cfg, workload)

	// Visit 1 is the submit record; visit 2 is the worker's start record.
	chaos := NewChaos(ChaosRule{Point: "wal.append", Visit: 2, Action: ActionCrash})
	srv1, err := New(Options{Workers: 1, JournalDir: dir, Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	id := submitOne(t, srv1, cfg, workload)
	waitCrashed(t, srv1, chaos, "wal.append", 2)

	srv2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info := waitServerDone(t, srv2, id)
	if info.Status != StatusDone || !info.Recovered {
		t.Fatalf("recovered job = %s recovered=%v, want done/recovered", info.Status, info.Recovered)
	}
	rr, _ := srv2.Result(id)
	if !reflect.DeepEqual(rr.Result, want) {
		t.Error("recovered result differs from the uninterrupted run")
	}
}

// TestRecoveryTerminalJobsSurviveRestart: completed state is durable —
// a done job is served from the result cache without re-running, a
// failed job keeps its status and error, and neither is re-enqueued.
func TestRecoveryTerminalJobsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cacheDir := t.TempDir()
	cfg := quickConfig(15)
	workload := []string{"mcf", "libquantum"}

	srv1, err := New(Options{Workers: 1, JournalDir: dir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	doneID := submitOne(t, srv1, cfg, workload)
	if info := waitServerDone(t, srv1, doneID); info.Status != StatusDone {
		t.Fatalf("job finished %s, want done", info.Status)
	}
	doneResult, _ := srv1.Result(doneID)

	failCfg := longConfig(15)
	resp, err := srv1.Submit(JobRequest{Config: failCfg, Workload: workload, TimeoutMS: 1})
	if err != nil {
		t.Fatal(err)
	}
	failID := resp.Jobs[0].ID
	if info := waitServerDone(t, srv1, failID); info.Status != StatusFailed {
		t.Fatalf("deadline job finished %s, want failed", info.Status)
	}
	drainServer(t, srv1)

	srv2, err := New(Options{Workers: 1, JournalDir: dir, CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)

	info, ok := srv2.Job(doneID)
	if !ok || info.Status != StatusDone || !info.Recovered || !info.Cached {
		t.Fatalf("done job after restart = %+v, want done/recovered/cached immediately", info)
	}
	rr, _ := srv2.Result(doneID)
	if !reflect.DeepEqual(rr.Result, doneResult.Result) {
		t.Error("done job's result drifted across restart")
	}

	failInfo, ok := srv2.Job(failID)
	if !ok || failInfo.Status != StatusFailed {
		t.Fatalf("failed job after restart = %+v, want failed", failInfo)
	}
	if failInfo.Error == "" {
		t.Error("failed job lost its error across restart")
	}

	// Both jobs are terminal: the restarted server's queue must be empty.
	if depth := srv2.Stats().QueueDepth; depth != 0 {
		t.Errorf("restarted server re-enqueued %d terminal jobs", depth)
	}
}

// TestRecoveryCanceledQueuedJobStaysCanceled: canceling a queued job
// writes its terminal record, so a restart does not resurrect it.
func TestRecoveryCanceledQueuedJobStaysCanceled(t *testing.T) {
	dir := t.TempDir()
	// No workers: submitted jobs stay queued, so Cancel hits the
	// queued path deterministically.
	srv1, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker with a long job, then cancel a queued one.
	longID := submitOne(t, srv1, longConfig(16), []string{"mcf", "libquantum"})
	queuedID := submitOne(t, srv1, quickConfig(16), []string{"mcf", "libquantum"})
	if info, _ := srv1.Cancel(queuedID); info.Status != StatusCanceled {
		t.Fatalf("canceled queued job = %s, want canceled", info.Status)
	}
	srv1.Cancel(longID)
	waitServerDone(t, srv1, longID)
	drainServer(t, srv1)

	srv2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	info, ok := srv2.Job(queuedID)
	if !ok || info.Status != StatusCanceled {
		t.Fatalf("canceled job after restart = %+v, want canceled", info)
	}
}

// TestRecoveryJobIDsDoNotCollide: the restarted server's ID sequence
// continues past every journaled job.
func TestRecoveryJobIDsDoNotCollide(t *testing.T) {
	dir := t.TempDir()
	cfg := quickConfig(17)
	workload := []string{"mcf", "libquantum"}
	srv1, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id1 := submitOne(t, srv1, cfg, workload)
	waitServerDone(t, srv1, id1)
	drainServer(t, srv1)

	srv2, err := New(Options{Workers: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drainServer(t, srv2)
	cfg2 := quickConfig(18)
	id2 := submitOne(t, srv2, cfg2, workload)
	if id1 == id2 {
		t.Fatalf("restarted server reissued job ID %s", id2)
	}
	if parseJobSeq(id2) <= parseJobSeq(id1) {
		t.Errorf("job sequence went backwards: %s after %s", id2, id1)
	}
}
