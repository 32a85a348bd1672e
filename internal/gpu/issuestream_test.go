package gpu_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gpufaultsim/internal/cnn"
	"gpufaultsim/internal/gpu"
	"gpufaultsim/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the golden issue-stream digests")

// issueStreamHook folds (SM, warp, pc, Mask, ExecMask) of every issue, in
// issue order, into h.
func issueStreamHook(h hash.Hash64) gpu.Hook {
	var rec [20]byte
	return gpu.HookFuncs{AfterFn: func(ctx *gpu.InstrCtx) {
		binary.LittleEndian.PutUint32(rec[0:], uint32(ctx.W.SM))
		binary.LittleEndian.PutUint32(rec[4:], uint32(ctx.W.IDInSM))
		binary.LittleEndian.PutUint32(rec[8:], uint32(ctx.PC))
		binary.LittleEndian.PutUint32(rec[12:], ctx.Mask)
		binary.LittleEndian.PutUint32(rec[16:], ctx.ExecMask)
		h.Write(rec[:])
	}}
}

// sizedDevice builds a device whose global memory is the job's footprint
// and a guard band, as perfi sizes it.
func sizedDevice(job *workloads.Job) *gpu.Device {
	cfg := gpu.DefaultConfig()
	cfg.GlobalMemWords = job.Footprint() + 64
	return gpu.NewDevice(cfg)
}

// issueStreamLine runs the workload's seed-1 job with that one observer
// hook and prints the FNV-64a digest of its issue stream.
func issueStreamLine(t *testing.T, set string, w workloads.Workload) string {
	t.Helper()
	job := w.Build(rand.New(rand.NewSource(1)))
	dev := sizedDevice(job)
	h := fnv.New64a()
	dev.AddHook(issueStreamHook(h))
	rr, err := job.Run(dev)
	if err != nil || rr.Hung() {
		t.Fatalf("%s/%s: golden run failed: err=%v trap=%v %s", set, w.Name(), err, rr.Trap, rr.TrapInfo)
	}
	return fmt.Sprintf("%s/%s issues=%d fnv64a=%016x\n", set, w.Name(), rr.Issues, h.Sum64())
}

// TestIssueStreamGolden holds the scheduler to a recorded issue order, not
// only to final outputs: which warp issues at which PC with which
// scheduled and executing lanes, for every issue of the 15 evaluation and
// 14 profiling jobs at seed 1.
func TestIssueStreamGolden(t *testing.T) {
	var got bytes.Buffer
	for _, w := range cnn.Evaluation15() {
		got.WriteString(issueStreamLine(t, "eval", w))
	}
	for _, w := range workloads.Profiling() {
		got.WriteString(issueStreamLine(t, "profile", w))
	}
	path := filepath.Join("testdata", "issue_stream_seed1.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("issue stream differs from %s (regenerate only for an intended scheduling change: go test ./internal/gpu -run TestIssueStreamGolden -update)\ngot:\n%swant:\n%s", path, got.Bytes(), want)
	}
}
