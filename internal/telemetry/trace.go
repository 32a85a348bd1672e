package telemetry

import (
	"strconv"
	"strings"
)

// TraceHeader is the HTTP header carrying an encoded TraceContext
// from a submitting client to the daemon.
const TraceHeader = "X-Gpufaultsim-Trace"

// TraceContext is the compact propagation format for distributed
// tracing: enough for a receiving process to re-parent its spans under
// the sender's span tree.
//
//   - Trace: the logical run ID (the job ID for daemon work) grouping
//     every span of one run across all processes.
//   - Origin: the process/role that owns the parent span ("coordinator",
//     a worker name, a submitting client).
//   - Span: the parent span's ID in the origin's recorder.
//   - Chunk: the chunk key the context travels with, when there is one.
//
// The zero value means "no propagated context" and is always safe.
type TraceContext struct {
	Trace  string `json:"trace,omitempty"`
	Origin string `json:"origin,omitempty"`
	Span   uint64 `json:"span,omitempty"`
	Chunk  string `json:"chunk,omitempty"`
}

// IsZero reports whether the context carries nothing.
func (tc TraceContext) IsZero() bool {
	return tc.Trace == "" && tc.Origin == "" && tc.Span == 0 && tc.Chunk == ""
}

// Encode renders the context in the wire form used by TraceHeader:
// semicolon-separated key=value pairs, empty fields omitted.
func (tc TraceContext) Encode() string {
	var b strings.Builder
	put := func(k, v string) {
		if v == "" {
			return
		}
		if b.Len() > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	put("trace", tc.Trace)
	put("origin", tc.Origin)
	if tc.Span != 0 {
		put("span", strconv.FormatUint(tc.Span, 10))
	}
	put("chunk", tc.Chunk)
	return b.String()
}

// ParseTraceContext decodes the Encode wire form. Unknown keys are
// ignored; malformed pairs are skipped rather than rejected, so a
// partially intelligible header still correlates what it can.
func ParseTraceContext(s string) TraceContext {
	var tc TraceContext
	for _, part := range strings.Split(s, ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || v == "" {
			continue
		}
		switch k {
		case "trace":
			tc.Trace = v
		case "origin":
			tc.Origin = v
		case "span":
			if id, err := strconv.ParseUint(v, 10, 64); err == nil {
				tc.Span = id
			}
		case "chunk":
			tc.Chunk = v
		}
	}
	return tc
}

// SpanRef renders a cross-process span reference as "origin#id".
func SpanRef(origin string, id uint64) string {
	return origin + "#" + strconv.FormatUint(id, 10)
}

func splitSpanRef(ref string) (origin string, id uint64, ok bool) {
	i := strings.LastIndexByte(ref, '#')
	if i < 0 {
		return "", 0, false
	}
	id, err := strconv.ParseUint(ref[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return ref[:i], id, true
}
