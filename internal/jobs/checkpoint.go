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

// checkpointSchema versions the job record format. A schema-1 file is a
// job record and an end record in one, and still loads.
const checkpointSchema = 2

// endSuffix names a job's end record, <id>.end.json, beside <id>.json.
const endSuffix = ".end.json"

// checkpoint is a job record, written as two new files: <id>.json at
// Submit (queued, no chunks) and <id>.end.json once the job is Done or
// Failed, adding each chunk's key into the content-addressed store.
// Progress in between lives only in the store, and payload bytes never
// live here. Fields an older daemon wrote that this one no longer has
// (the job's "slo_class", the spec's "engine") are ignored on load.
type checkpoint struct {
	Schema  int          `json:"schema"`
	ID      string       `json:"id"`
	Digest  string       `json:"digest"`
	Spec    Spec         `json:"spec"`
	State   State        `json:"state"`
	Err     string       `json:"error,omitempty"`
	Created time.Time    `json:"created"`
	Chunks  []ChunkState `json:"chunks,omitempty"`
}

// recordLocked marshals j's record in state st; only an end record lists
// the chunks. Caller holds the scheduler's mutex and writes after unlocking.
func (j *Job) recordLocked(st State, msg string) ([]byte, error) {
	cp := checkpoint{Schema: checkpointSchema, ID: j.ID, Digest: j.Digest,
		Spec: j.Spec, State: st, Err: msg, Created: j.created}
	if st != StateQueued {
		cp.Chunks = j.chunks
	}
	return json.MarshalIndent(cp, "", "  ")
}

// publishRecord writes b as dir/name through a temp file and a hard link.
// The link fails if name exists, so no record is ever replaced, and a
// crash mid-write leaves no torn record.
func publishRecord(dir, name string, b []byte) error {
	tmp, err := os.CreateTemp(dir, name+"-*.tmp")
	if err == nil {
		defer os.Remove(tmp.Name())
		_, err = tmp.Write(b)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Link(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		return fmt.Errorf("jobs: record %s: %w", name, err)
	}
	telCheckpoints.Inc()
	return nil
}

// loadCheckpoints reads every job under dir, oldest job ID first (IDs
// embed a monotonic sequence number, so lexicographic order is submission
// order); a job's end record supersedes its job record. Unreadable
// records are skipped with their errors collected, and temp files that a
// crash mid-publish left are ignored like any other non-.json name.
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
		if e.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		end := strings.TrimSuffix(name, ".json") + endSuffix
		if _, err := os.Stat(filepath.Join(dir, end)); err == nil {
			continue // a job record whose end record supersedes it
		}
		var cp checkpoint
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err == nil {
			err = json.Unmarshal(b, &cp)
		}
		if err == nil && cp.Schema != 1 && cp.Schema != checkpointSchema {
			err = fmt.Errorf("schema %d, want 1 or %d", cp.Schema, checkpointSchema)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("jobs: recover %s: %w", name, err))
			continue
		}
		cps = append(cps, &cp)
	}
	sort.Slice(cps, func(i, j int) bool { return cps[i].ID < cps[j].ID })
	return cps, errs
}
