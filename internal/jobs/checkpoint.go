package jobs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// checkpointSchema versions the on-disk job checkpoint format.
const checkpointSchema = 1

// checkpoint is the durable record of a job: its spec plus per-chunk
// completion state referencing payloads in the content-addressed store.
// Payload bytes never live here — the checkpoint stays small and the
// store stays the single source of result truth. Fields an older daemon
// wrote that this one no longer has (the job's "slo_class", the spec's
// "engine") are ignored on load, so they need no schema bump.
type checkpoint struct {
	Schema  int          `json:"schema"`
	ID      string       `json:"id"`
	Digest  string       `json:"digest"`
	Spec    Spec         `json:"spec"`
	State   State        `json:"state"`
	Err     string       `json:"error,omitempty"`
	Created time.Time    `json:"created"`
	Chunks  []ChunkState `json:"chunks"`
}

func checkpointPath(dir, jobID string) string {
	return filepath.Join(dir, jobID+".json")
}

// saveCheckpoint writes the job's checkpoint atomically (temp + rename),
// so a crash mid-write leaves the previous checkpoint intact.
func saveCheckpoint(dir string, j *Job) error {
	cp := checkpoint{
		Schema: checkpointSchema, ID: j.ID, Digest: j.Digest, Spec: j.Spec,
		State: j.state, Err: j.err, Created: j.created,
		Chunks: j.chunks,
	}
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: checkpoint %s: %w", j.ID, err)
	}
	tmp, err := os.CreateTemp(dir, j.ID+"-*.tmp")
	if err != nil {
		return fmt.Errorf("jobs: checkpoint %s: %w", j.ID, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: checkpoint %s: %w", j.ID, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: checkpoint %s: %w", j.ID, err)
	}
	if err := os.Rename(tmp.Name(), checkpointPath(dir, j.ID)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("jobs: checkpoint %s: %w", j.ID, err)
	}
	telCheckpoints.Inc()
	return nil
}

// loadCheckpoints reads every job checkpoint under dir, oldest job ID
// first (IDs embed a monotonic sequence number, so lexicographic order is
// submission order). Leftover temp files from interrupted writes are
// removed; unreadable checkpoints are skipped with their errors
// collected.
func loadCheckpoints(dir string) ([]*checkpoint, []error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, []error{fmt.Errorf("jobs: recover: %w", err)}
	}
	var cps []*checkpoint
	var errs []error
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			errs = append(errs, fmt.Errorf("jobs: recover %s: %w", name, err))
			continue
		}
		var cp checkpoint
		if err := json.Unmarshal(b, &cp); err != nil {
			errs = append(errs, fmt.Errorf("jobs: recover %s: %w", name, err))
			continue
		}
		if cp.Schema != checkpointSchema {
			errs = append(errs, fmt.Errorf("jobs: recover %s: schema %d, want %d",
				name, cp.Schema, checkpointSchema))
			continue
		}
		cps = append(cps, &cp)
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].ID < cps[j].ID })
	return cps, errs
}
