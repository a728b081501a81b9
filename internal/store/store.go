// Package store is the content-addressed store of simulation Results
// (DESIGN.md §18). The stfm-server's result cache and the alone-run
// baseline store behind every Talone denominator (Section 6.2) are two
// instances of one Store: the same verified envelope, the same spill
// layout, the same quarantine rule, the same singleflight.
//
// Keys are 64-char lowercase hex SHA-256 digests (service.Key,
// experiments.BaselineKey). Equal keys imply bit-identical runs, so a
// stored Result is indistinguishable from a recompute. A Store keeps
// every entry in memory; with a directory, every Put also writes
// <dir>/<key>.json and a memory miss falls back to disk, so stores in
// other processes or after a restart share the entries. Disk I/O
// failures and at-rest damage degrade to misses — the store is an
// accelerator, never a correctness dependency.
package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"stfm/internal/sim"
)

// Envelope is the on-disk spill format: the Result JSON plus the
// SHA-256 of exactly those bytes, verified on every load.
type Envelope struct {
	// V is the envelope format version (1).
	V int `json:"v"`
	// Sum is the hex SHA-256 of the Result field's raw bytes.
	Sum string `json:"sum"`
	// Result is the marshaled sim.Result, byte-for-byte as checksummed.
	Result json.RawMessage `json:"result"`
}

// Encode wraps res in a version-1 envelope.
func Encode(res *sim.Result) ([]byte, error) { return encode(res, nil) }

// encode is Encode with the spill fault hook applied to the Result
// bytes after they are summed, so an injected corruption lands on disk
// exactly as at-rest damage would.
func encode(res *sim.Result, spill func([]byte) ([]byte, error)) ([]byte, error) {
	raw, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	if spill != nil {
		if raw, err = spill(raw); err != nil {
			return nil, err
		}
	}
	return json.Marshal(Envelope{V: 1, Sum: hex.EncodeToString(sum[:]), Result: raw})
}

// Decode verifies an envelope and unwraps its Result. check, when
// non-nil, adds an instance-specific shape rule; a Result it rejects
// is treated as damage like any checksum failure.
func Decode(data []byte, check func(*sim.Result) error) (*sim.Result, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	if env.V != 1 {
		return nil, fmt.Errorf("unsupported envelope version %d", env.V)
	}
	want, err := hex.DecodeString(env.Sum)
	if err != nil || len(want) != sha256.Size {
		return nil, errors.New("malformed checksum")
	}
	if sum := sha256.Sum256(env.Result); !bytes.Equal(sum[:], want) {
		return nil, errors.New("checksum mismatch")
	}
	var res sim.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		return nil, err
	}
	if check != nil {
		if err := check(&res); err != nil {
			return nil, err
		}
	}
	return &res, nil
}

// ValidKey reports whether key is a 64-char lowercase hex digest — the
// only keys a Store accepts, which keeps every spill path inside its
// directory whatever a journal or caller hands in.
func ValidKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if c := key[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// Faults is the fault-injection seam the service's crash-recovery
// suite drives. Spill receives a Put's summed Result bytes before they
// are enveloped; Load receives a disk entry's bytes before they are
// verified. Either may rewrite the bytes or fail the operation (a Load
// error reads as a miss). Nil hooks are skipped. Load runs under the
// store's lock, so neither hook may call back into the store.
type Faults struct {
	// Spill runs once per disk write in Put and Do.
	Spill func(raw []byte) ([]byte, error)
	// Load runs once per disk entry read.
	Load func(data []byte) ([]byte, error)
}

// Stats are a Store's cumulative counters.
type Stats struct {
	// Hits counts Results served from memory or a verified disk entry.
	Hits int64 `json:"hits"`
	// Misses counts computes started (Do) or absent keys (Get).
	Misses int64 `json:"misses"`
	// Inflight is the number of Do computes running right now.
	Inflight int `json:"inflight"`
}

// Store is one content-addressed Result store. It is safe for
// concurrent use.
type Store struct {
	dir    string
	check  func(*sim.Result) error
	faults Faults

	mu       sync.Mutex
	mem      map[string]*sim.Result
	inflight map[string]chan struct{}
	hits     int64
	misses   int64
}

// Open builds a store spilling to dir, created if needed; dir == ""
// keeps it memory-only. check, when non-nil, is a shape rule every
// disk entry must pass (see Decode); it runs under the store's lock.
func Open(dir string, check func(*sim.Result) error) (*Store, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{
		dir:      dir,
		check:    check,
		mem:      make(map[string]*sim.Result),
		inflight: make(map[string]chan struct{}),
	}, nil
}

// SetFaults installs the fault-injection hooks. Test use; call before
// the store is shared.
func (s *Store) SetFaults(f Faults) { s.faults = f }

// Get returns the Result for key from memory or a verified disk entry.
// It does not wait for in-flight computes. Callers must not mutate the
// returned Result.
func (s *Store) Get(key string) (*sim.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if res, ok := s.lookup(key); ok {
		return res, true
	}
	s.misses++
	return nil, false
}

// Put stores res under key and spills it when the store has a
// directory. The spill is atomic (WriteFileAtomic); its error is
// returned for logging, but the in-memory entry is kept either way.
// An invalid key is an error and stores nothing.
func (s *Store) Put(key string, res *sim.Result) error {
	if !ValidKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	s.mem[key] = res
	s.mu.Unlock()
	return s.spill(key, res)
}

// Do returns the Result for key, computing it at most once per store:
// a memory hit or verified disk entry is returned directly; otherwise
// the first caller runs compute while concurrent callers for the same
// key block until it finishes and share its result. When the compute
// fails, its error goes to the computing caller only and each blocked
// caller retries (one of them becomes the next computer), so a
// transient failure never poisons the key. Waiting is bounded by ctx.
// Spill failures are dropped: the entry lives in memory and the next
// process recomputes. Callers must not mutate the returned Result.
func (s *Store) Do(ctx context.Context, key string, compute func() (*sim.Result, error)) (*sim.Result, error) {
	if !ValidKey(key) {
		return nil, fmt.Errorf("store: invalid key %q", key)
	}
	for {
		s.mu.Lock()
		if res, ok := s.lookup(key); ok {
			s.mu.Unlock()
			return res, nil
		}
		if ch, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			select {
			case <-ch:
				continue // the computer stored a result or failed; re-check
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		ch := make(chan struct{})
		s.inflight[key] = ch
		s.misses++
		s.mu.Unlock()

		res, err := compute()
		s.mu.Lock()
		delete(s.inflight, key)
		close(ch)
		if err == nil {
			s.mem[key] = res
		}
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
		_ = s.spill(key, res) // the entry lives in memory; the next process recomputes
		return res, nil
	}
}

// lookup serves key from memory or disk, counting a hit; callers hold
// s.mu. Invalid keys miss without touching disk.
func (s *Store) lookup(key string) (*sim.Result, bool) {
	res, ok := s.mem[key]
	if !ok && s.dir != "" && ValidKey(key) {
		res, ok = s.load(key)
	}
	if ok {
		s.mem[key] = res
		s.hits++
	}
	return res, ok
}

// load reads and verifies one disk entry; callers hold s.mu. Any
// damage — truncation, a checksum mismatch, an unversioned or empty
// file, a Result the check rejects — quarantines the entry as
// <key>.json.corrupt and reads as a miss.
func (s *Store) load(key string) (*sim.Result, bool) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if s.faults.Load != nil {
		if data, err = s.faults.Load(data); err != nil {
			return nil, false
		}
	}
	res, err := Decode(data, s.check)
	if err != nil {
		_ = Quarantine(path) // if the rename fails, the entry still reads as a miss
		return nil, false
	}
	return res, true
}

// spill writes key's envelope when the store has a directory.
func (s *Store) spill(key string, res *sim.Result) error {
	if s.dir == "" {
		return nil
	}
	data, err := encode(res, s.faults.Spill)
	if err == nil {
		err = WriteFileAtomic(s.path(key), data)
	}
	if err != nil {
		return fmt.Errorf("store: spill %s: %w", key, err)
	}
	return nil
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key+".json") }

// Len returns the number of in-memory entries (disk entries load
// lazily).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Hits: s.hits, Misses: s.misses, Inflight: len(s.inflight)}
}

// WriteFileAtomic persists data to path through a same-directory temp
// file, fsync, and rename, so path never holds a torn write.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// Quarantine renames a damaged file to path.corrupt (replacing any
// previous quarantine) for post-mortem inspection. A missing file is
// not an error.
func Quarantine(path string) error {
	if err := os.Rename(path, path+".corrupt"); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("quarantine: %w", err)
	}
	return nil
}
