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

// State is a job's lifecycle state.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Job is one submitted campaign. All fields behind the scheduler mutex;
// external readers use Snapshot/Status.
type Job struct {
	ID     string
	Spec   Spec // defaulted
	Digest string

	class    SLOClass // scheduling priority only; never enters digests
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
	Class     SLOClass     `json:"slo_class,omitempty"`
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
		Class:   j.class,
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

// --- final artifact assembly ---------------------------------------------

// assembleArtifacts reconstructs the job's output artifacts from its
// chunk payloads: one gate report per unit plus the combined software
// report, each in artifact.Write's file form. Deterministic given the
// payloads, so a resumed job emits bytes identical to an uninterrupted run.
func assembleArtifacts(spec Spec, payloads map[string][]byte) (map[string][]byte, error) {
	out := make(map[string][]byte)
	put := func(name string, v any) error {
		var buf bytes.Buffer
		if err := artifact.Write(&buf, v); err != nil {
			return fmt.Errorf("jobs: artifact %s: %w", name, err)
		}
		out[name] = buf.Bytes()
		return nil
	}
	var swRows []artifact.AppRow
	for _, c := range Chunks(spec) {
		pl, ok := payloads[c.ID]
		if !ok {
			return nil, fmt.Errorf("jobs: missing payload for chunk %s", c.ID)
		}
		switch c.Phase {
		case PhaseGate:
			var gr artifact.GateReport
			if err := json.Unmarshal(pl, &gr); err != nil {
				return nil, fmt.Errorf("jobs: gate payload %s: %w", c.ID, err)
			}
			if err := put("gate_"+c.Arg+".json", &gr); err != nil {
				return nil, err
			}
		case PhaseSoftware:
			var sp softwarePayload
			if err := json.Unmarshal(pl, &sp); err != nil {
				return nil, fmt.Errorf("jobs: software payload %s: %w", c.ID, err)
			}
			swRows = append(swRows, sp.Row)
		}
	}
	sw := &artifact.SoftwareReport{
		Schema: artifact.Version, Seed: spec.Seed,
		Injections: spec.Injections, Apps: swRows,
	}
	if err := put("software.json", sw); err != nil {
		return nil, err
	}
	return out, nil
}
