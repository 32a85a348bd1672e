package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the driver into a layer. Spans are recorded
// outside-in: the driver brackets calls to a package's exported functions,
// so a span's layer is the package that was called, not one it may call in
// turn. Times are offsets from the tracer's start.
type span struct {
	ID     int
	Parent int // 0 = root of its run
	Run    int // the repeat or ledger pass that caused it
	Layer  string
	Name   string
	Start  time.Duration
	End    time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how untraced repeats run the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	run   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextRun starts a new run identifier for the spans that follow and
// returns it.
func (t *tracer) nextRun() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.run++
	return t.run
}

// begin opens a span and returns its identifier for end and for children.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Run: t.run,
		Layer: layer, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// timed runs f under a span and returns its seconds.
func (t *tracer) timed(parent int, layer, name string, f func()) float64 {
	sp, t0 := t.begin(parent, layer, name), time.Now()
	f()
	d := time.Since(t0).Seconds()
	t.end(sp)
	return d
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Overlapping children (parallel
// workers) cover their union once.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := time.Duration(0), s.Start
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

// layerSelfSeconds sums self time by layer over the spans of the given
// runs. Spans that ran in parallel each count in full, as CPU time does.
func layerSelfSeconds(spans []span, runs map[int]bool) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		if runs[s.Run] {
			out[s.Layer] += self[s.ID].Seconds()
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format;
// about://tracing and Perfetto load a {"traceEvents": [...]} file of them.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`  // microseconds
	Dur  float64    `json:"dur"` // microseconds
	Pid  int        `json:"pid"` // run id
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
	Run    int `json:"run"`
}

type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

func writeChromeTrace(w io.Writer, spans []span) error {
	f := chromeFile{TraceEvents: make([]chromeEvent, len(spans))}
	for i, s := range spans {
		// One track per root span keeps parallel workers from stacking
		// into one another in the viewer.
		root := s
		for root.Parent != 0 {
			root = spans[root.Parent-1]
		}
		f.TraceEvents[i] = chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: s.Run, Tid: root.ID,
			Args: chromeArgs{ID: s.ID, Parent: s.Parent, Run: s.Run},
		}
	}
	return json.NewEncoder(w).Encode(f)
}

// checkChromeTrace loads a trace file back and reports how many spans it
// holds; every span must carry a name, a start, an end at or after it, an
// identifier, a parent that exists and a run.
func checkChromeTrace(r io.Reader) (int, error) {
	var f chromeFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	for i, e := range f.TraceEvents {
		switch {
		case e.Name == "" || e.Cat == "" || e.Ph != "X":
			return 0, fmt.Errorf("trace: event %d has no name, layer or phase", i)
		case e.Ts < 0 || e.Dur < 0:
			return 0, fmt.Errorf("trace: event %d (%s) has no start or end", i, e.Name)
		case e.Args.ID != i+1 || e.Args.Parent < 0 || e.Args.Parent > len(f.TraceEvents) || e.Args.Run < 1:
			return 0, fmt.Errorf("trace: event %d (%s) has a bad id, parent or run", i, e.Name)
		}
	}
	return len(f.TraceEvents), nil
}
