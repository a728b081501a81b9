package service

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"stfm/internal/sim"
	"stfm/internal/store"
)

// The durable job journal (DESIGN.md §17): an append-only WAL of job
// lifecycle records that lets a restarted server re-enqueue pending
// jobs and resume running ones from their last checkpoint. Each line
// is
//
//	<64 hex chars: sha256 of payload> <payload JSON>\n
//
// and every append is fsynced before the server acts on the event it
// records (write-ahead). Replay tolerates exactly the states a crash
// can leave: a torn final line (the crash hit mid-append) is truncated
// silently; corruption before the tail means the file was damaged at
// rest, so the valid prefix is kept, the damaged file is quarantined
// as .corrupt for inspection, and a fresh journal is rewritten from
// the prefix — surfaced to the operator as a *WALError alongside the
// recovered records, never as silent data loss.

// walName is the journal file inside Options.JournalDir.
const walName = "wal.log"

// Record types, in lifecycle order.
const (
	walSubmit     = "submit"     // job accepted: identity + config
	walStart      = "start"      // a worker began (or resumed) executing
	walCheckpoint = "checkpoint" // a checkpoint file was persisted
	walComplete   = "complete"   // terminal: done/failed/canceled
)

// walRecord is one journal entry. Type selects which fields are
// meaningful.
type walRecord struct {
	Seq  int64  `json:"seq"`
	Type string `json:"type"`
	Job  string `json:"job"`
	// submit fields
	Config      *sim.Config `json:"config,omitempty"`
	Workload    []string    `json:"workload,omitempty"`
	TimeoutMS   int64       `json:"timeoutMs,omitempty"`
	Fingerprint string      `json:"fingerprint,omitempty"`
	// checkpoint fields
	Cycle int64  `json:"cycle,omitempty"`
	Path  string `json:"path,omitempty"`
	// complete fields
	Status JobStatus `json:"status,omitempty"`
	Error  string    `json:"error,omitempty"`
}

// WALError reports journal damage found during replay. Recovery
// continues with the records that survived; the error exists so the
// loss is visible, not to abort the boot.
type WALError struct {
	// Path is the quarantined journal file (.corrupt).
	Path string
	// Line is the 1-based line number where damage began.
	Line int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *WALError) Error() string {
	return fmt.Sprintf("service: journal damaged at %s line %d: %v", e.Path, e.Line, e.Err)
}

// Unwrap exposes the cause.
func (e *WALError) Unwrap() error { return e.Err }

// wal is the open journal. Appends are mutex-serialized and fsynced.
type wal struct {
	mu    sync.Mutex
	f     *os.File
	path  string
	seq   int64
	chaos *Chaos
}

// encodeWALRecord renders one checksummed journal line.
func encodeWALRecord(r walRecord) ([]byte, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	line := make([]byte, 0, len(payload)+sha256.Size*2+2)
	line = append(line, hex.EncodeToString(sum[:])...)
	line = append(line, ' ')
	line = append(line, payload...)
	line = append(line, '\n')
	return line, nil
}

// decodeWALLine parses and verifies one journal line.
func decodeWALLine(line string) (walRecord, error) {
	var r walRecord
	if len(line) < sha256.Size*2+2 || line[sha256.Size*2] != ' ' {
		return r, fmt.Errorf("malformed record framing")
	}
	wantHex, payload := line[:sha256.Size*2], line[sha256.Size*2+1:]
	want, err := hex.DecodeString(wantHex)
	if err != nil {
		return r, fmt.Errorf("malformed checksum: %w", err)
	}
	sum := sha256.Sum256([]byte(payload))
	if !bytes.Equal(sum[:], want) {
		return r, fmt.Errorf("checksum mismatch")
	}
	if err := json.Unmarshal([]byte(payload), &r); err != nil {
		return r, fmt.Errorf("payload decode: %w", err)
	}
	return r, nil
}

// openWAL opens (creating if needed) the journal in dir and replays
// it. It returns the open journal positioned for appending, the
// replayed records, and — when mid-file damage forced a quarantine — a
// *WALError describing what was lost; the journal is still usable.
func openWAL(dir string, chaos *Chaos) (*wal, []walRecord, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("service: journal dir: %w", err)
	}
	path := filepath.Join(dir, walName)
	records, damage, err := replayWAL(path)
	if err != nil {
		return nil, nil, err
	}
	if damage != nil {
		// Quarantine the damaged file and rewrite a fresh journal from
		// the valid prefix, so the damage cannot compound on the next
		// crash.
		if err := store.Quarantine(path); err != nil {
			return nil, nil, fmt.Errorf("service: journal %w", err)
		}
		if err := rewriteWAL(path, records); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal open: %w", err)
	}
	w := &wal{f: f, path: path, chaos: chaos}
	for _, r := range records {
		if r.Seq > w.seq {
			w.seq = r.Seq
		}
	}
	if damage != nil {
		return w, records, damage
	}
	return w, records, nil
}

// replayWAL reads every valid record. A torn tail is normal crash
// residue and truncated silently; earlier damage is reported as a
// *WALError in the second return (records still hold the valid
// prefix).
func replayWAL(path string) ([]walRecord, *WALError, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("service: journal open: %w", err)
	}
	defer f.Close()
	var records []walRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	lineNo := 0
	var badLine int
	var badErr error
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if badErr != nil {
			// Damage already found mid-file: everything after it is
			// untrusted (appends are strictly ordered).
			continue
		}
		r, err := decodeWALLine(line)
		if err != nil {
			badLine, badErr = lineNo, err
			continue
		}
		records = append(records, r)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("service: journal read: %w", err)
	}
	if badErr != nil {
		if badLine == lineNo {
			// The damaged line is the file's last: a torn append from
			// the crash itself. Truncate it silently — the record was
			// never acknowledged.
			if err := rewriteWAL(path, records); err != nil {
				return nil, nil, err
			}
			return records, nil, nil
		}
		return records, &WALError{Path: path + ".corrupt", Line: badLine, Err: badErr}, nil
	}
	return records, nil, nil
}

// rewriteWAL atomically replaces the journal with exactly records.
func rewriteWAL(path string, records []walRecord) error {
	var data []byte
	for _, r := range records {
		line, err := encodeWALRecord(r)
		if err != nil {
			return fmt.Errorf("service: journal rewrite: %w", err)
		}
		data = append(data, line...)
	}
	if err := store.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("service: journal rewrite: %w", err)
	}
	return nil
}

// append durably journals one record, assigning its sequence number.
// The record is on disk (fsynced) when append returns nil.
func (w *wal) append(r walRecord) error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	r.Seq = w.seq
	line, err := encodeWALRecord(r)
	if err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if action, ok := w.chaos.at("wal.append"); ok {
		switch action {
		case ActionError:
			return fmt.Errorf("service: journal append: %w", ErrInjected)
		case ActionCorrupt:
			corruptByte(line[:len(line)-1])
		case ActionCrash:
			// Simulated death mid-append: leave exactly the torn line a
			// real crash would, then unwind as the dead process.
			w.f.Write(line[:len(line)/2])
			w.f.Sync()
			panic(chaosCrash{point: "wal.append"})
		}
	}
	if _, err := w.f.Write(line); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("service: journal append: %w", err)
	}
	return nil
}

// tear writes the first half of a record without its newline — the
// torn line a crash mid-append leaves. Test/chaos use only.
func (w *wal) tear(r walRecord) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.seq++
	r.Seq = w.seq
	line, err := encodeWALRecord(r)
	if err != nil {
		return
	}
	w.f.Write(line[:len(line)/2])
	w.f.Sync()
}

// close releases the journal file.
func (w *wal) close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// jobReplay is one job's state reconstructed from the journal.
type jobReplay struct {
	submit     walRecord // the submit record (identity + config)
	started    bool
	checkpoint walRecord // latest checkpoint record, if any
	hasCkpt    bool
	complete   walRecord // terminal record, if any
	done       bool
}

// replayJobs folds a record stream into per-job state, submission
// order preserved.
func replayJobs(records []walRecord) []jobReplay {
	byID := make(map[string]*jobReplay)
	var order []string
	for _, r := range records {
		switch r.Type {
		case walSubmit:
			if _, seen := byID[r.Job]; seen || r.Config == nil {
				continue // duplicate or malformed: ignore defensively
			}
			byID[r.Job] = &jobReplay{submit: r}
			order = append(order, r.Job)
		case walStart:
			if j := byID[r.Job]; j != nil {
				j.started = true
			}
		case walCheckpoint:
			if j := byID[r.Job]; j != nil {
				j.checkpoint = r
				j.hasCkpt = true
			}
		case walComplete:
			if j := byID[r.Job]; j != nil {
				j.complete = r
				j.done = true
			}
		}
	}
	out := make([]jobReplay, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out
}

// parseJobSeq extracts the numeric sequence from a job ID of the form
// "j<seq>-<fp8>"; 0 when the ID is foreign.
func parseJobSeq(id string) int64 {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	rest := id[1:]
	if i := strings.IndexByte(rest, '-'); i > 0 {
		rest = rest[:i]
	}
	var n int64
	for _, c := range rest {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int64(c-'0')
	}
	return n
}
