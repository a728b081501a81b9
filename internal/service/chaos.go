package service

import (
	"bytes"
	"fmt"
	"sync"

	"stfm/internal/store"
)

// Chaos is the deterministic fault-injection harness behind the
// crash-recovery test suite (DESIGN.md §17). A Chaos instance carries
// rules keyed by named injection points in the server's durability
// paths; each time execution passes a point, its visit counter
// increments and any rule matching (point, visit) fires. Rules are
// deterministic — same run, same faults — so every recovery test is
// reproducible. A nil *Chaos is inert and costs one pointer check per
// instrumentation point.
//
// Injection points:
//
//	wal.append       one journal record append (before the write)
//	checkpoint.write one checkpoint snapshot persist
//	cache.put        one result-cache disk spill
//	cache.get        one result-cache disk load
type Chaos struct {
	mu     sync.Mutex
	visits map[string]int
	rules  []ChaosRule
}

// ChaosAction is what a triggered rule does.
type ChaosAction string

// The fault actions. ActionError makes the operation fail with
// ErrInjected. ActionCrash simulates process death at the point: the
// operation's side effects stop half-applied (a torn WAL line, a
// missing checkpoint) and the owning worker unwinds without running
// any completion bookkeeping — exactly the state a kill -9 leaves
// behind. ActionCorrupt lets the operation proceed but flips bits in
// the payload it persists.
const (
	ActionError   ChaosAction = "error"
	ActionCrash   ChaosAction = "crash"
	ActionCorrupt ChaosAction = "corrupt"
)

// ChaosRule fires Action on the Visit-th pass (1-based) through Point.
type ChaosRule struct {
	// Point names the injection point (see Chaos).
	Point string
	// Visit is the 1-based occurrence to fault; 0 means every visit.
	Visit int
	// Action is the fault to inject.
	Action ChaosAction
}

// ErrInjected is the error ActionError rules surface.
var ErrInjected = fmt.Errorf("service: injected fault")

// NewChaos builds a harness with the given rules.
func NewChaos(rules ...ChaosRule) *Chaos {
	return &Chaos{visits: make(map[string]int), rules: rules}
}

// chaosCrash is the sentinel panic value simulating process death; the
// worker loop recognizes it and unwinds WITHOUT writing a completion
// record or updating counters — the job stays "running" in the journal
// just as it would after a real kill -9.
type chaosCrash struct{ point string }

// at records one pass through point and returns the triggered action,
// if any. It never panics itself; call sites translate ActionCrash
// into the chaosCrash sentinel at the exact spot whose side effects
// should stop (after a torn write, before a rename).
func (c *Chaos) at(point string) (ChaosAction, bool) {
	if c == nil {
		return "", false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.visits[point]++
	visit := c.visits[point]
	for _, r := range c.rules {
		if r.Point == point && (r.Visit == 0 || r.Visit == visit) {
			return r.Action, true
		}
	}
	return "", false
}

// Visits returns how many times execution has passed point.
func (c *Chaos) Visits(point string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.visits[point]
}

// storeFaults maps the cache.put/cache.get points onto the result
// cache's store hooks. An injected spill corruption flips a digit of
// the already-summed Result bytes, so the payload stays valid JSON —
// the nastiest kind of at-rest damage, caught only by the checksum.
func (c *Chaos) storeFaults() store.Faults {
	return store.Faults{
		Spill: func(raw []byte) ([]byte, error) {
			switch action, _ := c.at("cache.put"); action {
			case ActionError:
				return nil, ErrInjected
			case ActionCorrupt:
				raw = append([]byte(nil), raw...)
				if i := bytes.IndexAny(raw, "0123456789"); i >= 0 {
					raw[i] ^= 0x01
				}
			case ActionCrash:
				panic(chaosCrash{point: "cache.put"})
			}
			return raw, nil
		},
		Load: func(data []byte) ([]byte, error) {
			switch action, _ := c.at("cache.get"); action {
			case ActionError:
				return nil, ErrInjected
			case ActionCorrupt:
				data = append([]byte(nil), data...)
				corruptByte(data)
			}
			return data, nil
		},
	}
}

// corruptByte flips one bit roughly in the middle of data, in place.
func corruptByte(data []byte) {
	if len(data) > 0 {
		data[len(data)/2] ^= 0x40
	}
}
