package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

func TestFrameLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"asyncio/internal/pfs.(*Target).MetaOp":          "pfs",
		"asyncio/internal/vclock.(*Clock).Run":           "vclock",
		"asyncio/internal/campaign/store.(*Store).Get":   "store",
		"asyncio/internal/campaign.(*Server).worker":     "campaign",
		"asyncio/internal/workloads/vpicio.Run":          "workloads",
		"asyncio/internal/workloads/harness.NewCrashKit": "workloads",
		"asyncio/internal/btree.(*Tree).Insert":          "repo_other",
		"asyncio/internal/critpath.(*Recorder).Record":   "critpath",
		"net/http.(*conn).serve":                         "http",
		"encoding/json.Unmarshal":                        "json",
		"main.main":                                      "bench",
		"runtime.mallocgc":                               "",
		"encoding/base64.(*Encoding).Decode":             "",
		"sync.(*Mutex).Lock":                             "",
	} {
		if got := frameLayer(fn); got != want {
			t.Errorf("frameLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttribute(t *testing.T) {
	for _, tc := range []struct {
		stack    []string // innermost first
		layer    string
		sync, gc bool
	}{
		{[]string{"runtime.memmove", "asyncio/internal/pfs.(*Target).TryWriteData", "asyncio/internal/vclock.(*Proc).run"}, "pfs", false, false},
		// Allocation is charged to the innermost layer that asked for it.
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.concatstrings", "asyncio/internal/pfs.(*Target).MetaOp"}, "pfs", false, true},
		// base64 work under json.Unmarshal of a bundle is json's.
		{[]string{"encoding/base64.(*Encoding).Decode", "encoding/json.(*decodeState).literalStore", "encoding/json.Unmarshal", "asyncio/internal/campaign.DecodeBundle"}, "json", false, false},
		// Lock handoff inside the engine: vclock's, and a sync leaf.
		{[]string{"runtime.futex", "runtime.lock2", "runtime.chansend", "asyncio/internal/vclock.(*Proc).wake"}, "vclock", true, false},
		// The benchmark's own HTTP client is the benchmark, not the service.
		{[]string{"syscall.Syscall", "net.(*conn).Read", "net/http.(*persistConn).Read", "net/http.(*persistConn).readLoop"}, "bench", false, false},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*response).finishRequest", "net/http.(*conn).serve"}, "http", false, false},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_bg", false, true},
		{nil, "runtime_bg", false, false},
	} {
		if got := attribute(tc.stack); got != tc.layer {
			t.Errorf("attribute(%v) = %q, want %q", tc.stack, got, tc.layer)
		}
		if got := isSyncLeaf(tc.stack); got != tc.sync {
			t.Errorf("isSyncLeaf(%v) = %v, want %v", tc.stack, got, tc.sync)
		}
		if got := isMallocGC(tc.stack); got != tc.gc {
			t.Errorf("isMallocGC(%v) = %v, want %v", tc.stack, got, tc.gc)
		}
	}
}

var sink []byte

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestParseCPUProfile decodes a real runtime/pprof CPU profile: the
// busy loop in this package must be charged to the benchmark, and the
// layer shares must partition the samples.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	c, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if c.samples < 5 {
		t.Skipf("only %d samples", c.samples)
	}
	if c.layer["bench"]*2 < c.samples {
		t.Errorf("busy loop: %d of %d samples charged to bench (%v)", c.layer["bench"], c.samples, c.layer)
	}
	out := map[string]float64{}
	c.metrics(out)
	var sum float64
	for _, l := range layers {
		sum += out["cpu."+l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("layer shares sum to %g, want 1", sum)
	}
}

func TestParseCPUProfileRejectsGarbage(t *testing.T) {
	if _, err := parseCPUProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage decoded")
	}
}

// TestAllocsByLayer: with every allocation sampled, allocations made
// here between two snapshots are counted and charged to the benchmark.
func TestAllocsByLayer(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	// Each P's next sample was drawn at the old rate; allocate past it.
	for i := 0; i < 1<<16; i++ {
		sink = make([]byte, 64)
	}
	before := takeAllocSnapshot()
	for i := 0; i < 1000; i++ {
		sink = make([]byte, 64+i%8)
	}
	got := allocsByLayer(before, takeAllocSnapshot(), 1)
	if got["bench"] < 1000 {
		t.Errorf("counted %g allocations in bench, want at least 1000 (%v)", got["bench"], got)
	}
}

func TestUnsample(t *testing.T) {
	if got := unsample(10, 640, 1); got != 10 {
		t.Errorf("rate 1 must not scale: %g", got)
	}
	// Objects far larger than the rate are always sampled.
	if got := unsample(10, 10<<20, 4096); got < 10 || got > 10.001 {
		t.Errorf("large objects: %g, want 10", got)
	}
	// Small objects are sampled rarely and scale up.
	if got := unsample(10, 160, 4096); got < 2000 {
		t.Errorf("small objects: %g, want about 2565", got)
	}
}
