package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRecorderCap bounds the default flight recorder: old spans are
// overwritten once this many completed spans are resident.
const DefaultRecorderCap = 4096

// SpanRecord is one completed span as stored in the flight recorder.
// Trace, Origin and RemoteParent exist for distributed stitching: Trace
// groups every span of one logical run (the job ID), Origin names the
// process/role that recorded the span, and RemoteParent is a cross-
// process parent reference ("origin#id") resolved to a local Parent
// when the batch is Ingested by the recorder owning that origin.
type SpanRecord struct {
	ID           uint64            `json:"id"`
	Parent       uint64            `json:"parent,omitempty"` // 0 = root
	Name         string            `json:"name"`
	StartUS      int64             `json:"start_us"` // unix microseconds
	DurUS        int64             `json:"dur_us"`
	Trace        string            `json:"trace,omitempty"`
	Origin       string            `json:"origin,omitempty"`
	RemoteParent string            `json:"remote_parent,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
}

// Span is one in-flight phase of a campaign run. Spans form trees via
// Child; End records the completed span into the flight recorder. A nil
// *Span (telemetry disabled) is a valid no-op receiver for every
// method, so instrumentation sites never branch on Enabled themselves.
type Span struct {
	rec          *FlightRecorder
	id           uint64
	parent       uint64
	name         string
	trace        string
	remoteParent string
	start        time.Time

	mu    sync.Mutex
	attrs map[string]string
	ended bool
}

// Child opens a sub-span. Children may End after their parent; the
// parent link is by ID, not lifetime. Children inherit the trace ID.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.startSpan(name, s.id, s.trace)
}

// Context returns the span's trace context for propagation across a
// process boundary. A nil span returns the zero context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{Trace: s.trace, Origin: s.rec.Origin(), Span: s.id}
}

// SetAttr attaches a key/value to the span's record.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// End completes the span and records it. Idempotent: only the first End
// records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.rec.record(SpanRecord{
		ID:           s.id,
		Parent:       s.parent,
		Name:         s.name,
		StartUS:      s.start.UnixMicro(),
		DurUS:        time.Since(s.start).Microseconds(),
		Trace:        s.trace,
		Origin:       s.rec.Origin(),
		RemoteParent: s.remoteParent,
		Attrs:        attrs,
	})
}

// FlightRecorder is a bounded in-memory ring of completed spans: cheap
// enough to leave on in production, deep enough to reconstruct the
// phase tree of recent campaign runs after the fact.
type FlightRecorder struct {
	seq atomic.Uint64 // span IDs

	mu      sync.Mutex
	origin  string       // process identity stamped on recorded spans
	buf     []SpanRecord // ring storage, len == cap once full
	next    int          // next write position
	wrapped bool
	total   uint64 // spans ever recorded
}

// SetOrigin names the process/role owning this recorder (for example
// "coordinator" or a worker name). The origin is stamped on every span
// recorded afterwards and lets Ingest resolve RemoteParent references
// that point back at this recorder's own spans.
func (r *FlightRecorder) SetOrigin(origin string) {
	r.mu.Lock()
	r.origin = origin
	r.mu.Unlock()
}

// Origin returns the recorder's process identity ("" if unset).
func (r *FlightRecorder) Origin() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.origin
}

// NewFlightRecorder builds a recorder holding up to capacity completed
// spans (minimum 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{buf: make([]SpanRecord, 0, capacity)}
}

// StartSpan opens a root span. Returns nil (a no-op span) when
// telemetry is disabled.
func (r *FlightRecorder) StartSpan(name string) *Span {
	return r.startSpan(name, 0, "")
}

// StartTrace opens a root span tagged with a trace ID (typically the
// job/run ID) so every descendant — local or remote — can be grouped
// back into one logical run.
func (r *FlightRecorder) StartTrace(name, trace string) *Span {
	return r.startSpan(name, 0, trace)
}

// StartSpanContext opens a span continuing a propagated trace context.
// If the context's origin matches this recorder's own origin the parent
// link is local (by ID); otherwise the parent is kept as a remote
// reference resolved when the span batch is ingested by the origin
// process. Returns nil when telemetry is disabled.
func (r *FlightRecorder) StartSpanContext(name string, tc TraceContext) *Span {
	if !enabled.Load() {
		return nil
	}
	s := &Span{rec: r, id: r.seq.Add(1), name: name, trace: tc.Trace, start: time.Now()}
	if tc.Span != 0 {
		if tc.Origin != "" && tc.Origin == r.Origin() {
			s.parent = tc.Span
		} else {
			s.remoteParent = SpanRef(tc.Origin, tc.Span)
		}
	}
	return s
}

func (r *FlightRecorder) startSpan(name string, parent uint64, trace string) *Span {
	if !enabled.Load() {
		return nil
	}
	return &Span{rec: r, id: r.seq.Add(1), parent: parent, name: name, trace: trace, start: time.Now()}
}

// Ingest splices a batch of spans recorded by another process into this
// recorder: IDs are remapped through the local sequence (parent links
// inside the batch follow), and RemoteParent references naming this
// recorder's own origin are resolved to local parent IDs — which is
// what re-parents worker span trees under the coordinator's job spans.
// Returns the number of spans recorded.
func (r *FlightRecorder) Ingest(records []SpanRecord) int {
	if !enabled.Load() || len(records) == 0 {
		return 0
	}
	own := r.Origin()
	idmap := make(map[uint64]uint64, len(records))
	for i := range records {
		idmap[records[i].ID] = r.seq.Add(1)
	}
	for _, rec := range records {
		rec.ID = idmap[rec.ID]
		if p, ok := idmap[rec.Parent]; ok {
			rec.Parent = p
		} else if rec.Parent != 0 {
			rec.Parent = 0 // dangling intra-batch link; keep the span as a root
		}
		if rec.RemoteParent != "" && own != "" {
			if o, id, ok := splitSpanRef(rec.RemoteParent); ok && o == own {
				rec.Parent = id
				rec.RemoteParent = ""
			}
		}
		r.record(rec)
	}
	return len(records)
}

func (r *FlightRecorder) record(rec SpanRecord) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, rec)
	} else {
		r.buf[r.next] = rec
		r.wrapped = true
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Snapshot returns the resident spans in record order (oldest first)
// plus the number of spans that have been overwritten by wraparound.
func (r *FlightRecorder) Snapshot() (spans []SpanRecord, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.wrapped {
		spans = make([]SpanRecord, 0, len(r.buf))
		spans = append(spans, r.buf[r.next:]...)
		spans = append(spans, r.buf[:r.next]...)
		return spans, r.total - uint64(len(r.buf))
	}
	return append([]SpanRecord(nil), r.buf...), 0
}

// Reset discards every recorded span. Only tests call it, to start from
// a clean trace.
func (r *FlightRecorder) Reset() {
	r.mu.Lock()
	r.buf = r.buf[:0]
	r.next = 0
	r.wrapped = false
	r.total = 0
	r.mu.Unlock()
}

// WriteNDJSON dumps the recorder as one SpanRecord JSON object per
// line, oldest first.
func (r *FlightRecorder) WriteNDJSON(w io.Writer) error {
	spans, _ := r.Snapshot()
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// chromeTrace is the envelope chrome://tracing and Perfetto load.
type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// WriteTrace dumps the recorder as Chrome trace_event JSON ("X"
// complete events). Each span lands on the track (tid) of its root
// ancestor, so concurrent jobs render as separate lanes in
// chrome://tracing / Perfetto.
func (r *FlightRecorder) WriteTrace(w io.Writer) error {
	spans, _ := r.Snapshot()
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parent[s.ID] = s.Parent
	}
	root := func(id uint64) uint64 {
		for {
			p, ok := parent[id]
			if !ok || p == 0 {
				return id
			}
			id = p
		}
	}
	tr := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(spans))}
	for _, s := range spans {
		args := map[string]string{"id": fmt.Sprint(s.ID)}
		if s.Parent != 0 {
			args["parent"] = fmt.Sprint(s.Parent)
		}
		if s.Trace != "" {
			args["trace"] = s.Trace
		}
		if s.Origin != "" {
			args["origin"] = s.Origin
		}
		if s.RemoteParent != "" {
			args["remote_parent"] = s.RemoteParent
		}
		for k, v := range s.Attrs {
			args[k] = v
		}
		tr.TraceEvents = append(tr.TraceEvents, chromeEvent{
			Name: s.Name, Cat: "span", Ph: "X",
			TS: s.StartUS, Dur: s.DurUS, PID: 1, TID: root(s.ID),
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(tr)
}
