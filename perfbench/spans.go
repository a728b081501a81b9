package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one iteration share a root.
type span struct {
	ID     int64
	Parent int64 // 0 for a root
	Name   string
	Tid    int // lane in the trace viewer (client or worker index)
	Start  time.Time
	End    time.Time
}

// spanLog keeps spans in memory and writes them once, at exit, as Chrome
// trace_event JSON (chrome://tracing, Perfetto). A nil *spanLog records
// nothing, so untraced runs pay one nil check per boundary.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span under parent on lane tid and returns its id, the
// parent of any span begun inside it, with the function that closes it.
func (l *spanLog) begin(parent int64, tid int, name string) (id int64, end func()) {
	if l == nil {
		return 0, func() {}
	}
	start := time.Now()
	l.mu.Lock()
	id = int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Tid: tid, Start: start})
	l.mu.Unlock()
	return id, func() {
		now := time.Now()
		l.mu.Lock()
		l.spans[id-1].End = now
		l.mu.Unlock()
	}
}

// add records a span whose interval was measured elsewhere (for example
// from a server's job timestamps).
func (l *spanLog) add(parent int64, tid int, name string, start, end time.Time) {
	if l == nil || start.IsZero() || end.Before(start) {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: int64(len(l.spans) + 1), Parent: parent, Name: name, Tid: tid, Start: start, End: end})
	l.mu.Unlock()
}

// write saves the spans as a trace_event "complete" event list.
func (l *spanLog) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	l.mu.Lock()
	evs := make([]event, 0, len(l.spans))
	for _, s := range l.spans {
		if s.End.IsZero() {
			continue
		}
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Tid,
			Ts:   float64(s.Start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	l.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
