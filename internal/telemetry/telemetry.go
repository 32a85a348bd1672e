// Package telemetry is the reproduction's zero-dependency observability
// layer: a registry of atomic counters, gauges and fixed-bucket
// histograms with Prometheus text exposition and canonical JSON
// snapshots, plus lightweight spans recorded into a bounded in-memory
// flight recorder exportable as Chrome trace_event JSON and NDJSON.
//
// Everything funnels through two process-wide singletons — Default()
// (the metric registry) and DefaultRecorder() (the flight recorder) —
// so instrumented packages declare their metrics as package-level vars
// and hot paths pay only an atomic add per event. Telemetry never
// influences campaign results: all state is write-only from the
// simulation's point of view.
//
// The whole subsystem can be switched off (SetEnabled, or the
// GPUFAULTSIM_TELEMETRY=off environment variable). Disabled, every
// counter/gauge/histogram update is one atomic flag load and spans are
// nil no-ops; timers still measure, so callers that feed wall-clock
// seconds into their own accounting (e.g. the job scheduler's speed-up
// breakdown) stay correct either way.
package telemetry

import (
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// enabled gates every metric update and span record. Default on;
// GPUFAULTSIM_TELEMETRY=off|0|false|no disables at process start.
var enabled atomic.Bool

func init() {
	switch strings.ToLower(os.Getenv("GPUFAULTSIM_TELEMETRY")) {
	case "off", "0", "false", "no":
		enabled.Store(false)
	default:
		enabled.Store(true)
	}
}

// SetEnabled turns the telemetry subsystem on or off at runtime.
func SetEnabled(on bool) { enabled.Store(on) }

// Label is one static key="value" pair attached to a metric at
// registration. Labels are baked into the metric handle (there is no
// per-observation label allocation).
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// defaultRegistry and defaultRecorder are the process-wide singletons.
var (
	defaultRegistry = NewRegistry()
	defaultRecorder = NewFlightRecorder(DefaultRecorderCap)
)

// Default returns the process-wide metric registry.
func Default() *Registry { return defaultRegistry }

// DefaultRecorder returns the process-wide flight recorder.
func DefaultRecorder() *FlightRecorder { return defaultRecorder }

// StartSpan opens a root span on the default flight recorder.
func StartSpan(name string) *Span { return defaultRecorder.StartSpan(name) }

// StartTrace opens a trace-tagged root span on the default recorder.
func StartTrace(name, trace string) *Span { return defaultRecorder.StartTrace(name, trace) }

// Timer measures one interval and feeds it to a histogram on Stop. The
// measurement itself always happens — even with telemetry disabled —
// because callers fold the returned seconds into their own accounting;
// only the histogram observation is gated.
type Timer struct {
	h     *Histogram
	start time.Time
}

// StartTimer starts a timer that will observe into h (nil h: measure
// only).
func StartTimer(h *Histogram) Timer {
	return Timer{h: h, start: time.Now()}
}

// Stop observes the elapsed interval into the timer's histogram and
// returns it in seconds. Stop may be called more than once; every call
// observes the interval since StartTimer.
func (t Timer) Stop() float64 {
	sec := time.Since(t.start).Seconds()
	if t.h != nil {
		t.h.Observe(sec)
	}
	return sec
}
