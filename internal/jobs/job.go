package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/report"
)

// State is a job's lifecycle state. Done and Failed are terminal.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Job is one submitted campaign. All fields behind the scheduler mutex;
// external readers use Snapshot/Status.
type Job struct {
	ID     string
	Spec   Spec // defaulted
	Digest string

	state    State
	chunks   []ChunkState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	timing   report.Speedup

	artifacts map[string][]byte // name -> bytes, assembled on completion

	subs []chan report.ProgressSnapshot
}

// Status is the externally visible view of a job.
type Status struct {
	ID        string       `json:"id"`
	State     State        `json:"state"`
	Spec      Spec         `json:"spec"`
	Digest    string       `json:"digest"`
	Chunks    []ChunkState `json:"chunks"`
	CacheHits int          `json:"cache_hits"`
	Err       string       `json:"error,omitempty"`
	Created   time.Time    `json:"created"`
	Artifacts []string     `json:"artifacts,omitempty"`

	Timing report.Speedup `json:"timing"`
}

// locked helpers — the scheduler owns the mutex.

func (j *Job) chunksDone() (done, hits int) {
	for _, c := range j.chunks {
		if c.Done {
			done++
			if c.FromCache {
				hits++
			}
		}
	}
	return done, hits
}

func (j *Job) chunk(id string) *ChunkState {
	for i := range j.chunks {
		if j.chunks[i].ID == id {
			return &j.chunks[i]
		}
	}
	return nil
}

func (j *Job) snapshotLocked(chunkID string, phase Phase) report.ProgressSnapshot {
	done, hits := j.chunksDone()
	elapsed := 0.0
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now() //vetsim:ignore determinism progress-stream elapsed seconds; never enters artifacts or cache keys
		}
		elapsed = end.Sub(j.started).Seconds()
	}
	return report.ProgressSnapshot{
		Job:         j.ID,
		State:       string(j.state),
		Phase:       string(phase),
		Chunk:       chunkID,
		ChunksDone:  done,
		ChunksTotal: len(j.chunks),
		CacheHits:   hits,
		ElapsedSec:  elapsed,
		Timing:      j.timing,
		Err:         j.err,
	}
}

func (j *Job) statusLocked() Status {
	done := Status{
		ID:      j.ID,
		State:   j.state,
		Spec:    j.Spec,
		Digest:  j.Digest,
		Chunks:  append([]ChunkState(nil), j.chunks...),
		Err:     j.err,
		Created: j.created,
		Timing:  j.timing,
	}
	_, done.CacheHits = j.chunksDone()
	for name := range j.artifacts {
		done.Artifacts = append(done.Artifacts, name)
	}
	sort.Strings(done.Artifacts)
	return done
}

// emitLocked fans a snapshot out to subscribers without blocking: a slow
// stream consumer loses intermediate events, never the stream itself.
func (j *Job) emitLocked(snap report.ProgressSnapshot) {
	for _, ch := range j.subs {
		select {
		case ch <- snap:
		default:
		}
	}
}

func (j *Job) closeSubsLocked() {
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
}

// --- chunk outputs and final artifacts -----------------------------------

// jobOutput is what a job keeps of its chunk payloads, each decoded once:
// the profile (the gate chunks' patterns and the timing counts), the gate
// reports and the software rows, in Chunks order.
type jobOutput struct {
	prof  profilePayload
	gates []artifact.GateReport
	rows  []artifact.AppRow
}

// absorb decodes chunk c's payload into o.
func (o *jobOutput) absorb(c Chunk, payload []byte) error {
	var err error
	switch c.Phase {
	case PhaseProfile:
		err = json.Unmarshal(payload, &o.prof)
	case PhaseGate:
		var gr artifact.GateReport
		err = json.Unmarshal(payload, &gr)
		o.gates = append(o.gates, gr)
	case PhaseSoftware:
		var sp softwarePayload
		err = json.Unmarshal(payload, &sp)
		o.rows = append(o.rows, sp.Row)
	}
	if err != nil {
		return fmt.Errorf("jobs: %s payload: %w", c.ID, err)
	}
	return nil
}

// timePhase records a finished phase's wall-clock seconds and counts in t.
func (o *jobOutput) timePhase(t *report.Speedup, phase Phase, sec float64) {
	switch phase {
	case PhaseProfile:
		t.ProfilingSec += sec
		t.AppDynInstrs = o.prof.DynInstrs
	case PhaseGate:
		t.GateSec += sec
		t.GatePatterns = len(o.prof.Patterns)
		t.GateFaults = 0
		for _, gr := range o.gates {
			t.GateFaults += gr.TotalFaults
		}
	case PhaseSoftware:
		t.SoftwareSec += sec
		t.SWInjections = 0
		for _, row := range o.rows {
			for _, m := range row.Models {
				t.SWInjections += m.Masked + m.SDC + m.DUE
			}
		}
	}
}

// artifacts renders the job's output artifacts: one gate report per unit
// plus the combined software report, each in artifact.Write's file form.
// Deterministic given the payloads, so a resumed job emits bytes
// identical to an uninterrupted run.
func (o *jobOutput) artifacts(spec Spec) (map[string][]byte, error) {
	out := make(map[string][]byte)
	put := func(name string, v any) error {
		var buf bytes.Buffer
		if err := artifact.Write(&buf, v); err != nil {
			return fmt.Errorf("jobs: artifact %s: %w", name, err)
		}
		out[name] = buf.Bytes()
		return nil
	}
	for i := range o.gates {
		if err := put("gate_"+o.gates[i].Unit+".json", &o.gates[i]); err != nil {
			return nil, err
		}
	}
	sw := &artifact.SoftwareReport{
		Schema: artifact.Version, Seed: spec.Seed,
		Injections: spec.Injections, Apps: o.rows,
	}
	if err := put("software.json", sw); err != nil {
		return nil, err
	}
	return out, nil
}
