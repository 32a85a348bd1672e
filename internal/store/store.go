// Package store is a content-addressed result cache for campaign
// sub-results. Entries are keyed by the hex digest of everything the
// result depends on (see artifact.Digest and the cache-key derivation in
// package jobs), so identical sub-campaigns across jobs are computed once
// and served from disk thereafter.
//
// Writes are atomic (temp file + rename on the same filesystem), so a
// killed daemon never leaves a torn entry; readers either see the full
// payload or a miss. An optional byte budget evicts least-recently-used
// entries on insert, bounding the cache's disk footprint.
package store

//vetsim:instrumented

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"gpufaultsim/internal/telemetry"
)

// Process-wide cache metrics. A process can open several stores (tests,
// embedded daemons); counters aggregate across all of them and the
// gauges track running totals via deltas, Prometheus-style. Per-store
// exact numbers remain available through Stats().
var (
	telHits      = telemetry.Default().Counter("store_hits_total", "content-addressed cache hits")
	telMisses    = telemetry.Default().Counter("store_misses_total", "content-addressed cache misses")
	telPuts      = telemetry.Default().Counter("store_puts_total", "payloads inserted into the cache")
	telEvictions = telemetry.Default().Counter("store_evictions_total", "entries evicted by the LRU byte budget")
	telBytes     = telemetry.Default().Gauge("store_bytes", "payload bytes resident across open stores")
	telEntries   = telemetry.Default().Gauge("store_entries", "entries resident across open stores")
	telPutSize   = telemetry.Default().Histogram("store_put_size_bytes", "inserted payload sizes", telemetry.BytesBuckets())
)

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	Budget    int64 `json:"budget_bytes"` // 0 = unlimited
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type entry struct {
	size    int64
	lastUse int64 // logical clock; higher = more recent
}

// Store is a content-addressed, LRU-bounded result cache on disk.
// All methods are safe for concurrent use.
type Store struct {
	dir    string
	budget int64

	mu      sync.Mutex
	entries map[string]*entry
	clock   int64
	bytes   int64
	stats   Stats
}

// Open scans dir (created if missing) and returns a store over its
// contents. budget > 0 bounds the total payload bytes; existing entries
// beyond the budget are evicted oldest-first on the next Put.
func Open(dir string, budget int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, budget: budget, entries: make(map[string]*entry)}

	type found struct {
		key  string
		size int64
		mod  int64
	}
	var scan []found
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		name := info.Name()
		if strings.HasSuffix(name, ".tmp") {
			// Leftover from an interrupted write: never linked, remove.
			os.Remove(path)
			return nil
		}
		if !validKey(name) {
			return nil
		}
		scan = append(scan, found{name, info.Size(), info.ModTime().UnixNano()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scan %s: %w", dir, err)
	}
	// Recover LRU order from modification times (ties broken by key so
	// recovery is deterministic).
	sort.Slice(scan, func(i, j int) bool {
		if scan[i].mod != scan[j].mod {
			return scan[i].mod < scan[j].mod
		}
		return scan[i].key < scan[j].key
	})
	for _, f := range scan {
		s.clock++
		s.entries[f.key] = &entry{size: f.size, lastUse: s.clock}
		s.bytes += f.size
	}
	telEntries.Add(int64(len(s.entries)))
	telBytes.Add(s.bytes)
	return s, nil
}

// validKey reports whether key is a hex digest name this store manages.
func validKey(key string) bool {
	if len(key) < 16 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c >= '0' && c <= '9' || c >= 'a' && c <= 'f' {
			continue
		}
		return false
	}
	return true
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key)
}

// Get returns the payload stored under key, if present. Hits refresh the
// entry's LRU position.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		telMisses.Inc()
		return nil, false
	}
	s.clock++
	e.lastUse = s.clock
	s.mu.Unlock()

	b, err := os.ReadFile(s.path(key))
	if err != nil {
		// Entry vanished underneath us (manual deletion); drop it.
		s.mu.Lock()
		if cur, still := s.entries[key]; still {
			s.bytes -= cur.size
			delete(s.entries, key)
			telEntries.Add(-1)
			telBytes.Add(-cur.size)
		}
		s.stats.Misses++
		s.mu.Unlock()
		telMisses.Inc()
		return nil, false
	}
	s.mu.Lock()
	s.stats.Hits++
	s.mu.Unlock()
	telHits.Inc()
	return b, true
}

// Contains reports whether key is present without touching LRU order or
// hit counters.
func (s *Store) Contains(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[key]
	return ok
}

// Put stores data under key atomically: the payload is written to a temp
// file and renamed into place, so concurrent readers and daemon crashes
// never observe partial content. Storing an existing key is a dedup hit,
// not a put (content-addressed entries are immutable, so the incoming
// bytes are by construction identical) — cross-node dedup, where several
// workers push the same chunk result, therefore shows up honestly in
// store_hits_total instead of inflating store_puts_total. When a byte
// budget is set, least-recently-used entries are evicted until the new
// total fits.
func (s *Store) Put(key string, data []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	s.mu.Lock()
	if _, dup := s.entries[key]; dup {
		s.stats.Hits++
		s.mu.Unlock()
		telHits.Inc()
		return nil
	}
	s.mu.Unlock()

	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, key[:8]+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: close %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: link %s: %w", key, err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[key]; dup {
		// Raced with another Put of the same content; identical bytes, so
		// the rename above was harmless. Count a dedup hit, not a put.
		s.stats.Hits++
		telHits.Inc()
		return nil
	}
	s.clock++
	s.entries[key] = &entry{size: int64(len(data)), lastUse: s.clock}
	s.bytes += int64(len(data))
	s.stats.Puts++
	telPuts.Inc()
	telPutSize.Observe(float64(len(data)))
	telEntries.Add(1)
	telBytes.Add(int64(len(data)))
	s.evictLocked(key)
	return nil
}

// evictLocked drops least-recently-used entries until the byte budget is
// met. keep is never evicted (the entry just inserted).
func (s *Store) evictLocked(keep string) {
	if s.budget <= 0 {
		return
	}
	for s.bytes > s.budget && len(s.entries) > 1 {
		victim := ""
		var oldest int64
		for k, e := range s.entries {
			if k == keep {
				continue
			}
			if victim == "" || e.lastUse < oldest || (e.lastUse == oldest && k < victim) {
				victim, oldest = k, e.lastUse
			}
		}
		if victim == "" {
			return
		}
		s.bytes -= s.entries[victim].size
		telBytes.Add(-s.entries[victim].size)
		telEntries.Add(-1)
		delete(s.entries, victim)
		os.Remove(s.path(victim))
		s.stats.Evictions++
		telEvictions.Inc()
	}
}

// Writable probes that the store's directory accepts writes (readiness
// checks): it creates, syncs and removes a scratch file. A read-only or
// full volume surfaces here before a campaign fails mid-chunk.
func (s *Store) Writable() error {
	f, err := os.CreateTemp(s.dir, "probe-*.tmp")
	if err != nil {
		return fmt.Errorf("store: not writable: %w", err)
	}
	name := f.Name()
	_, werr := f.Write([]byte("probe"))
	cerr := f.Close()
	os.Remove(name)
	if werr != nil {
		return fmt.Errorf("store: not writable: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("store: not writable: %w", cerr)
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Bytes = s.bytes
	st.Budget = s.budget
	return st
}
