package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer's public
// functions. Spans are recorded from the harness's own code, around
// the calls — nothing inside internal/ or cmd/ is instrumented (that
// is ROADMAP item 3) — so the finest span is one public call.
type span struct {
	ID     int
	Parent int // 0 = a root span
	Name   string
	// Hash is the scenario's content address, shared by every span of
	// one scenario so its spans can be pulled out of the trace.
	Hash  string
	Track int // the client goroutine (farm-mix) or 0
	Start time.Duration
	End   time.Duration
}

// tracer collects spans in memory and writes them out when the
// workload ends. A nil tracer records nothing, which is the untraced
// run: the timed code is identical and only the appends are skipped.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(name, hash string, parent, track int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Hash: hash, Track: track, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// setHash labels a span whose scenario hash was not yet known when it
// began.
func (t *tracer) setHash(id int, hash string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id-1].Hash = hash
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		edge := s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfSecondsByName sums self time over the spans of each name.
func (t *tracer) selfSecondsByName() map[string]float64 {
	out := map[string]float64{}
	if t == nil {
		return out
	}
	self := selfTimes(t.spans)
	for _, s := range t.spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write renders the spans as a Chrome trace. Every event carries the
// workload, the scenario hash and the parent span id; the environment
// goes in otherData.
func (t *tracer) write(path string, env environment) error {
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Track,
			Args: map[string]any{
				"workload": t.workload, "hash": s.Hash,
				"span_id": s.ID, "parent_span_id": s.Parent,
			},
		})
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       env,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerOf is the layer prefix of a dotted metric or span name.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}
