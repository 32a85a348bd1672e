package jobs

import (
	"encoding/json"
	"fmt"

	"gpufaultsim/internal/artifact"
	"gpufaultsim/internal/campaign"
	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/errmodel"
	"gpufaultsim/internal/gatesim"
	"gpufaultsim/internal/perfi"
	"gpufaultsim/internal/units"
)

// chunkSchema versions every cached payload and cache key. Bumping it
// invalidates the whole store, so bump only when payload shape or step
// semantics change.
//
// Schema history:
//
//	1: initial resumable-campaign cache.
//	2: gate keys carried the simulation engine (event vs full). Engine and
//	   collapse have since left the key without a bump: production runs one
//	   configuration, payloads kept their shape, and entries under the old
//	   keys are never asked for again and age out of the LRU.
const chunkSchema = 2

// Phase names a stage of the methodology; chunks group under phases for
// progress reporting and per-phase timing.
type Phase string

const (
	PhaseProfile  Phase = "profile"
	PhaseGate     Phase = "gate"
	PhaseSoftware Phase = "software"
)

// Chunk is one resumable work unit of a job.
type Chunk struct {
	ID    string `json:"id"`    // "profile", "gate:wsc", "sw:bfs"
	Phase Phase  `json:"phase"` // profile | gate | software
	Arg   string `json:"arg"`   // unit or app name ("" for profile)
}

// ChunkState tracks one chunk's lifecycle inside a job checkpoint.
type ChunkState struct {
	Chunk
	Done      bool   `json:"done"`
	CacheKey  string `json:"cache_key,omitempty"`
	FromCache bool   `json:"from_cache,omitempty"`
}

// Chunks derives the deterministic work-unit list of a defaulted spec:
// the profiling pass, one gate-level campaign per unit under test, then
// one software campaign per application, in stable order. Chunk
// enumeration is part of cache-key derivation: a spec field that selects
// which chunks exist (Apps) is covered by each chunk's key argument
// rather than by a key-material field, and the cachekey analyzer counts
// the reads here toward coverage.
//
//vetsim:cachekey-surface
func Chunks(spec Spec) []Chunk {
	out := []Chunk{{ID: "profile", Phase: PhaseProfile}}
	for _, u := range units.All() {
		out = append(out, Chunk{ID: "gate:" + u.Name, Phase: PhaseGate, Arg: u.Name})
	}
	for _, app := range spec.Apps {
		out = append(out, Chunk{ID: "sw:" + app, Phase: PhaseSoftware, Arg: app})
	}
	return out
}

// profilePayload is the cached result of the profiling chunk: exactly
// what downstream chunks and the final timing accounting consume.
type profilePayload struct {
	Schema      int               `json:"schema"`
	Patterns    []units.Pattern   `json:"patterns"` // top patterns, campaign order
	DynInstrs   uint64            `json:"dyn_instrs"`
	PerWorkload map[string]uint64 `json:"per_workload"`
}

// softwarePayload is the cached result of one application's software
// campaign — one row of the final software artifact.
type softwarePayload struct {
	Schema int             `json:"schema"`
	Row    artifact.AppRow `json:"row"`
}

// --- cache key derivation -------------------------------------------------
//
// A chunk's cache key is the digest of everything its result depends on.
// Worker counts, job IDs and wall-clock never enter the key; netlist
// structure, stimulus set, seed and campaign knobs always do.

type profileKeyMaterial struct {
	Schema      int      `json:"schema"`
	Kind        string   `json:"kind"`
	Seed        int64    `json:"seed"`
	MaxPatterns int      `json:"max_patterns"`
	Workloads   []string `json:"workloads"`
}

func profileKey(spec Spec) (string, error) {
	return artifact.Digest(profileKeyMaterial{
		Schema: chunkSchema, Kind: "profile", Seed: spec.Seed,
		MaxPatterns: spec.MaxPatterns, Workloads: spec.Profiling,
	})
}

type gateKeyMaterial struct {
	Schema         int    `json:"schema"`
	Kind           string `json:"kind"`
	Unit           string `json:"unit"`
	NetlistDigest  string `json:"netlist_digest"`
	PatternsDigest string `json:"patterns_digest"`
	Seed           int64  `json:"seed"`
}

func gateKey(spec Spec, u *units.Unit, patternsDigest string) (string, error) {
	return artifact.Digest(gateKeyMaterial{
		Schema: chunkSchema, Kind: "gate", Unit: u.Name,
		NetlistDigest:  artifact.NetlistDigest(u.NL),
		PatternsDigest: patternsDigest,
		Seed:           spec.Seed,
	})
}

type softwareKeyMaterial struct {
	Schema     int      `json:"schema"`
	Kind       string   `json:"kind"`
	App        string   `json:"app"`
	Injections int      `json:"injections"`
	Seed       int64    `json:"seed"`
	Models     []string `json:"models"`
}

func softwareKey(spec Spec, app string) (string, error) {
	var models []string
	for _, m := range errmodel.Injectable() {
		models = append(models, m.String())
	}
	return artifact.Digest(softwareKeyMaterial{
		Schema: chunkSchema, Kind: "software", App: app,
		Injections: spec.Injections, Seed: spec.Seed, Models: models,
	})
}

// --- chunk computation ----------------------------------------------------

// ComputeChunk is the single chunk executor: the local scheduler's cache
// misses and cluster workers both run it, and it returns the payload to
// store under req.Key. Gate chunks depend on the profiling payload: dep
// resolves req.ProfileKey — the scheduler hands back the payload it
// holds, a worker reads its local store with remote read-through to the
// coordinator.
// batchWorkers bounds intra-campaign fault-batch parallelism and, like
// every worker count, never influences the payload bytes.
func ComputeChunk(req ChunkRequest, dep func(key string) ([]byte, error), batchWorkers int) ([]byte, error) {
	spec := req.Spec.WithDefaults()
	switch req.Chunk.Phase {
	case PhaseProfile:
		return computeProfile(spec)
	case PhaseGate:
		unit := units.ByName(req.Chunk.Arg)
		if unit == nil {
			return nil, fmt.Errorf("jobs: chunk %s: unknown unit %q", req.Chunk.ID, req.Chunk.Arg)
		}
		if req.ProfileKey == "" {
			return nil, fmt.Errorf("jobs: chunk %s: gate chunk without a profile dependency key", req.Chunk.ID)
		}
		if dep == nil {
			return nil, fmt.Errorf("jobs: chunk %s: no dependency fetcher", req.Chunk.ID)
		}
		pb, err := dep(req.ProfileKey)
		if err != nil {
			return nil, fmt.Errorf("jobs: chunk %s: profile dependency %s: %w", req.Chunk.ID, req.ProfileKey, err)
		}
		var prof profilePayload
		if err := json.Unmarshal(pb, &prof); err != nil {
			return nil, fmt.Errorf("jobs: chunk %s: profile payload: %w", req.Chunk.ID, err)
		}
		return computeGate(spec, unit, prof.Patterns, batchWorkers)
	case PhaseSoftware:
		return computeSoftware(spec, req.Chunk.Arg)
	default:
		return nil, fmt.Errorf("jobs: chunk %s: unknown phase %q", req.Chunk.ID, req.Chunk.Phase)
	}
}

// computeProfile runs the profiling chunk and serializes its payload.
func computeProfile(spec Spec) ([]byte, error) {
	prof, err := campaign.ProfileStep(spec.campaignConfig())
	if err != nil {
		return nil, err
	}
	return artifact.Canonical(profilePayload{
		Schema:      chunkSchema,
		Patterns:    prof.TopPatterns(spec.MaxPatterns),
		DynInstrs:   prof.DynInstrs,
		PerWorkload: prof.PerWorkload,
	})
}

// computeGate runs one unit's gate-level campaign chunk, collapsed and on
// the event engine. The payload is the unit's final gate artifact,
// byte-for-byte. batchWorkers is the intra-campaign fault-batch
// parallelism — an execution knob that stays out of gateKey because
// summaries are byte-identical at every width.
func computeGate(spec Spec, u *units.Unit, patterns []units.Pattern, batchWorkers int) ([]byte, error) {
	out := campaign.GateStep(u, patterns, true, gatesim.EngineEvent, batchWorkers)
	return artifact.Canonical(artifact.NewGateReport(spec.Seed, out.Summary, out.Collector))
}

// computeSoftware runs one application's software-injection chunk.
func computeSoftware(spec Spec, app string) ([]byte, error) {
	w := cnn.ByName(app)
	if w == nil {
		return nil, fmt.Errorf("jobs: unknown workload %q", app)
	}
	res, err := campaign.SoftwareStep(w, spec.campaignConfig())
	if err != nil {
		return nil, err
	}
	sw := artifact.NewSoftwareReport(spec.Seed, spec.Injections, []*perfi.AppResult{res})
	if len(sw.Apps) != 1 {
		return nil, fmt.Errorf("jobs: software chunk for %s produced %d rows", app, len(sw.Apps))
	}
	return artifact.Canonical(softwarePayload{Schema: chunkSchema, Row: sw.Apps[0]})
}
