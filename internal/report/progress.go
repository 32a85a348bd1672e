package report

import "fmt"

// ProgressSnapshot is a point-in-time view of a running campaign job: the
// payload of the daemon's NDJSON progress stream. Chunk counts cover the
// job's whole work-unit list (profile, per-unit gate campaigns, per-app
// software campaigns); Timing carries the per-phase wall-clock accounting
// accumulated so far, in the same shape as the Section 6.3 speed-up
// breakdown.
type ProgressSnapshot struct {
	Job         string  `json:"job"`
	State       string  `json:"state"`
	Phase       string  `json:"phase"` // phase of the chunk that triggered the event
	Chunk       string  `json:"chunk,omitempty"`
	ChunksDone  int     `json:"chunks_done"`
	ChunksTotal int     `json:"chunks_total"`
	CacheHits   int     `json:"cache_hits"`
	ElapsedSec  float64 `json:"elapsed_sec"`
	Timing      Speedup `json:"timing"`
	Err         string  `json:"error,omitempty"`
}

// Fraction returns completed work as a 0..1 fraction.
func (p ProgressSnapshot) Fraction() float64 {
	if p.ChunksTotal == 0 {
		return 0
	}
	return float64(p.ChunksDone) / float64(p.ChunksTotal)
}

// String renders a one-line progress report.
func (p ProgressSnapshot) String() string {
	s := fmt.Sprintf("%s %s %d/%d chunks (%.0f%%) cache-hits=%d %.2fs",
		p.Job, p.State, p.ChunksDone, p.ChunksTotal, 100*p.Fraction(),
		p.CacheHits, p.ElapsedSec)
	if p.Chunk != "" {
		s += " [" + p.Chunk + "]"
	}
	if p.Err != "" {
		s += " error: " + p.Err
	}
	return s
}
