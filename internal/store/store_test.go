package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stfm/internal/sim"
)

// testKey is a valid key (any 64-char lowercase hex string).
var testKey = strings.Repeat("ab", 32)

func oneThread() *sim.Result {
	return &sim.Result{Policy: sim.PolicyFRFCFS, Threads: []sim.ThreadResult{{Benchmark: "mcf", Instructions: 1000, Cycles: 2000, IPC: 0.5}}}
}

func TestValidKey(t *testing.T) {
	for key, want := range map[string]bool{
		testKey:                         true,
		strings.Repeat("0", 64):         true,
		"":                              false,
		"../x":                          false,
		strings.Repeat("a", 63):         false,
		strings.Repeat("a", 65):         false,
		strings.Repeat("A", 64):         false,
		strings.Repeat("g", 64):         false,
		"../" + strings.Repeat("a", 61): false,
	} {
		if got := ValidKey(key); got != want {
			t.Errorf("ValidKey(%q) = %v, want %v", key, got, want)
		}
	}
}

// TestInvalidKeyNeverTouchesDisk: a key that is not a digest misses
// without reading or quarantining anything, Put and Do refuse it, and
// nothing is written outside the store's directory.
func TestInvalidKeyNeverTouchesDisk(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "store")
	s, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := Encode(oneThread())
	if err != nil {
		t.Fatal(err)
	}
	outside := filepath.Join(root, "x.json")
	if err := os.WriteFile(outside, valid, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("../x"); ok {
		t.Fatal("Get served a file outside the store directory")
	}
	if err := s.Put("../y", oneThread()); err == nil {
		t.Fatal("Put accepted a non-digest key")
	}
	computed := false
	if _, err := s.Do(context.Background(), "../y", func() (*sim.Result, error) {
		computed = true
		return oneThread(), nil
	}); err == nil || computed {
		t.Fatalf("Do with a non-digest key: err %v, computed %v; want an error before computing", err, computed)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("files next to the store = %d, want 2 (store/, x.json)", len(entries))
	}
	if _, err := os.Stat(outside); err != nil {
		t.Errorf("file outside the store was moved: %v", err)
	}
	if s.Len() != 0 {
		t.Errorf("store holds %d entries, want 0", s.Len())
	}
}

// TestDoBlockedCallerRetriesAfterFailure: when the computing caller
// fails, the error is its alone; a caller that was waiting on it (or
// arrives after) computes afresh and gets its own result.
func TestDoBlockedCallerRetriesAfterFailure(t *testing.T) {
	s, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	boom := errors.New("boom")
	first := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), testKey, func() (*sim.Result, error) {
			close(started)
			<-release
			return nil, boom
		})
		first <- err
	}()
	<-started
	second := make(chan *sim.Result, 1)
	want := oneThread()
	go func() {
		res, err := s.Do(context.Background(), testKey, func() (*sim.Result, error) { return want, nil })
		if err != nil {
			t.Error(err)
		}
		second <- res
	}()
	if st := s.Stats(); st.Inflight != 1 {
		t.Errorf("stats while computing = %+v, want 1 in flight", st)
	}
	close(release)
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("computing caller got %v, want boom", err)
	}
	if got := <-second; got != want {
		t.Fatalf("retrying caller got %+v, want its own compute's result", got)
	}
	if st := s.Stats(); st.Misses != 2 || st.Inflight != 0 {
		t.Errorf("stats = %+v, want 2 computes and none in flight", st)
	}
}

// TestDoWaitBoundedByContext: a caller blocked on another's compute
// gives up when its own context ends.
func TestDoWaitBoundedByContext(t *testing.T) {
	s, err := Open("", nil)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Do(context.Background(), testKey, func() (*sim.Result, error) {
			close(started)
			<-release
			return oneThread(), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Do(ctx, testKey, func() (*sim.Result, error) {
		t.Error("waiting caller computed")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("blocked caller got %v, want context.Canceled", err)
	}
	close(release)
	<-done
}

// TestWriteFileAtomic: the write replaces an existing file whole and
// leaves no temp file behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for _, data := range []string{"first version", "second"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read back %q (%v), want %q", got, err, data)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d files, want 1 (no temp files left)", len(entries))
	}
	if err := WriteFileAtomic(filepath.Join(dir, "missing", "f"), nil); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
