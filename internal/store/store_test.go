package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := key("a")
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, []byte("payload")) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestPutIsImmutable(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	k := key("a")
	s.Put(k, []byte("first"))
	s.Put(k, []byte("second"))
	got, _ := s.Get(k)
	if string(got) != "first" {
		t.Fatalf("content-addressed entry mutated: %q", got)
	}
}

func TestDuplicatePutCountsDedupHit(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	k := key("a")
	s.Put(k, []byte("payload"))
	s.Put(k, []byte("payload")) // cross-node dedup: same content-addressed key
	st := s.Stats()
	if st.Puts != 1 {
		t.Fatalf("puts = %d, want 1 (duplicate must not count as a put)", st.Puts)
	}
	if st.Hits != 1 {
		t.Fatalf("hits = %d, want 1 (duplicate put is a dedup hit)", st.Hits)
	}
}

func TestWritableProbe(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	if err := s.Writable(); err != nil {
		t.Fatalf("fresh temp dir not writable: %v", err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("probe left entries behind: %+v", st)
	}
}

func TestReopenRecoversEntries(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 0)
	s.Put(key("a"), []byte("aa"))
	s.Put(key("b"), []byte("bb"))

	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(key("a")); !ok || string(got) != "aa" {
		t.Fatalf("recovered Get = %q, %v", got, ok)
	}
	if st := s2.Stats(); st.Entries != 2 || st.Bytes != 4 {
		t.Fatalf("recovered stats = %+v", st)
	}
}

func TestOpenRemovesTornTempFiles(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "ab")
	os.MkdirAll(sub, 0o755)
	torn := filepath.Join(sub, "abcdef01-12345.tmp")
	os.WriteFile(torn, []byte("partial"), 0o644)

	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("torn temp counted as entry: %+v", st)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatal("torn temp file not removed")
	}
}

func TestLRUBudgetEvicts(t *testing.T) {
	s, _ := Open(t.TempDir(), 25)
	ka, kb, kc := key("a"), key("b"), key("c")
	s.Put(ka, make([]byte, 10))
	s.Put(kb, make([]byte, 10))
	s.Get(ka) // refresh a; b is now LRU
	s.Put(kc, make([]byte, 10))

	if s.Contains(kb) {
		t.Fatal("LRU entry b not evicted")
	}
	if !s.Contains(ka) || !s.Contains(kc) {
		t.Fatal("recently-used entries evicted")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Bytes != 20 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestEvictedEntryGoneFromDisk(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 10)
	s.Put(key("a"), make([]byte, 8))
	s.Put(key("b"), make([]byte, 8)) // evicts a
	s2, _ := Open(dir, 10)
	if s2.Contains(key("a")) {
		t.Fatal("evicted entry still on disk")
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	if err := s.Put("../escape", []byte("x")); err == nil {
		t.Fatal("path-traversal key accepted")
	}
	if err := s.Put("short", []byte("x")); err == nil {
		t.Fatal("non-digest key accepted")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := key(fmt.Sprintf("item-%d", i%10))
				s.Put(k, []byte(fmt.Sprintf("payload-%d", i%10)))
				if b, ok := s.Get(k); ok {
					if want := fmt.Sprintf("payload-%d", i%10); string(b) != want {
						t.Errorf("Get = %q, want %q", b, want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if st := s.Stats(); st.Entries != 10 {
		t.Fatalf("entries = %d, want 10", st.Entries)
	}
}
