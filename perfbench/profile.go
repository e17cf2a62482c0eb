package main

// Per-layer attribution of CPU and allocation profiles. A layer is a
// repo module (asyncio/internal/<pkg>) or one of the stdlib layers the
// service runs on (net/http, encoding/json). Each sample goes to the
// innermost frame of its stack that belongs to a layer; samples with
// no such frame are runtime background work (GC workers, scheduler,
// timers).

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// layers is the report order of every attribution bucket. The buckets
// partition the samples, so their shares sum to 1.
var layers = []string{
	// simulator
	"vclock", "mpi", "taskengine", "asyncvol", "vol", "hdf5", "ioreq", "pfs", "flow",
	"memsys", "faults", "amrex", "workloads", "systems", "core", "experiments", "model",
	// observability recorders
	"critpath", "metrics", "trace", "perfetto",
	// service
	"campaign", "store", "recovery", "http", "json",
	// repo packages outside the named layers, the benchmark itself
	// (including its HTTP client), and frames with no layer at all
	"repo_other", "bench", "runtime_bg",
}

var layerSet = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// pkgPath returns the import path of a symbolized function name, e.g.
// "asyncio/internal/pfs.(*Target).MetaOp" → "asyncio/internal/pfs".
func pkgPath(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// frameLayer maps one function to its layer, or "" when the frame
// belongs to no layer (runtime, other stdlib).
func frameLayer(fn string) string {
	pkg := pkgPath(fn)
	if rest, ok := strings.CutPrefix(pkg, "asyncio/internal/"); ok {
		if rest == "campaign/store" {
			return "store"
		}
		seg, _, _ := strings.Cut(rest, "/")
		if layerSet[seg] {
			return seg
		}
		return "repo_other"
	}
	switch pkg {
	case "main", "asyncio/perfbench":
		return "bench"
	case "net/http":
		return "http"
	case "encoding/json":
		return "json"
	}
	return ""
}

// clientMarkers identify net/http frames that belong to an HTTP client.
// The benchmark's clients share the process with the server, so their
// transport work is charged to the benchmark, not to the http layer.
var clientMarkers = []string{
	"net/http.(*Client)", "net/http.(*Transport)", "net/http.(*persistConn)",
	"net/http.(*bodyEOFSignal)", "net/http.send",
}

// attribute returns the layer a stack (innermost frame first) is
// charged to.
func attribute(stack []string) string {
	for _, fn := range stack {
		l := frameLayer(fn)
		if l == "" {
			continue
		}
		if l == "http" && isClientStack(stack) {
			return "bench"
		}
		return l
	}
	return "runtime_bg"
}

func isClientStack(stack []string) bool {
	for _, fn := range stack {
		for _, m := range clientMarkers {
			if strings.HasPrefix(fn, m) {
				return true
			}
		}
	}
	return false
}

// syncLeaves are leaf functions of lock, channel, park and futex code:
// the goroutine handoff cost, whichever layer asked for it.
var syncLeaves = []string{
	"runtime.lock", "runtime.unlock", "runtime.futex", "runtime.chan", "runtime.closechan",
	"runtime.selectgo", "runtime.park_m", "runtime.gopark", "runtime.goready", "runtime.ready",
	"runtime.semacquire", "runtime.semrelease", "runtime.notesleep", "runtime.notewakeup",
	"runtime.mcall", "runtime.gogo", "runtime.schedule", "runtime.findRunnable",
	"runtime.runqget", "runtime.runqput", "runtime.runqgrab", "runtime.wakep", "runtime.stopm",
	"runtime.startm", "runtime.procyield", "runtime.osyield", "runtime.usleep",
	"runtime.casgstatus", "runtime.execute", "runtime.send", "runtime.recv",
	"sync.", "internal/sync.",
}

func isSyncLeaf(stack []string) bool {
	if len(stack) == 0 {
		return false
	}
	for _, p := range syncLeaves {
		if strings.HasPrefix(stack[0], p) {
			return true
		}
	}
	return false
}

// gcFrames mark allocation and collection work anywhere on a stack.
var gcFrames = map[string]bool{
	"runtime.mallocgc": true, "runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
	"runtime.bgsweep": true, "runtime.bgscavenge": true, "runtime.gcStart": true,
	"runtime.markroot": true, "runtime.gcDrain": true,
}

func isMallocGC(stack []string) bool {
	for _, fn := range stack {
		if gcFrames[fn] {
			return true
		}
	}
	return false
}

// cpuShares is a CPU profile reduced to per-layer sample shares.
type cpuShares struct {
	samples  int64
	layer    map[string]int64
	syncLeaf int64 // overlaps layers
	mallocGC int64 // overlaps layers
}

func (c *cpuShares) add(stack []string, n int64) {
	c.samples += n
	c.layer[attribute(stack)] += n
	if isSyncLeaf(stack) {
		c.syncLeaf += n
	}
	if isMallocGC(stack) {
		c.mallocGC += n
	}
}

// metrics renders the shares as cpu.* per-layer metrics.
func (c *cpuShares) metrics(out map[string]float64) {
	share := func(n int64) float64 {
		if c.samples == 0 {
			return 0
		}
		return float64(n) / float64(c.samples)
	}
	out["cpu.samples"] = float64(c.samples)
	for _, l := range layers {
		out["cpu."+l] = share(c.layer[l])
	}
	out["cpu.sched_sync"] = share(c.syncLeaf)
	out["cpu.malloc_gc"] = share(c.mallocGC)
}

// parseCPUProfile reduces a gzipped pprof CPU profile (as written by
// runtime/pprof) to per-layer sample counts.
func parseCPUProfile(data []byte) (*cpuShares, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	c := &cpuShares{layer: make(map[string]int64)}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		var stack []string
		for _, id := range s.locs {
			for _, fid := range p.locFuncs[id] {
				stack = append(stack, p.strings[p.funcName[fid]])
			}
		}
		c.add(stack, s.values[0])
	}
	return c, nil
}

// profile is the subset of profile.proto attribution needs.
type profile struct {
	strings  []string
	funcName map[uint64]int64    // function id → name string index
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	samples  []sample
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

// profile.proto field numbers read here (see the encoder in
// internal/critpath/pprof.go for the same message layout).
const (
	fProfSample   = 2
	fProfLocation = 4
	fProfFunction = 5
	fProfStrings  = 6
	fSampleLoc    = 1
	fSampleValue  = 2
	fLocID        = 1
	fLocLine      = 4
	fLineFunc     = 1
	fFuncID       = 1
	fFuncName     = 2
)

var errTruncated = errors.New("truncated protobuf")

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num    int
	wire   int
	varint uint64
	bytes  []byte
}

// pbFields splits a message into its fields.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return nil, errTruncated
			}
			f.varint, b = v, b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errTruncated
			}
			f.bytes, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errTruncated
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("unsupported wire type %d", f.wire)
		}
		out = append(out, f)
	}
	return out, nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// varints reads a repeated varint field, packed or not.
func varints(f pbField, dst []uint64) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.varint), nil
	}
	b := f.bytes
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	fields, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	p := &profile{funcName: make(map[uint64]int64), locFuncs: make(map[uint64][]uint64)}
	for _, f := range fields {
		switch f.num {
		case fProfStrings:
			p.strings = append(p.strings, string(f.bytes))
		case fProfSample:
			sf, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			var vals []uint64
			for _, x := range sf {
				switch x.num {
				case fSampleLoc:
					if s.locs, err = varints(x, s.locs); err != nil {
						return nil, err
					}
				case fSampleValue:
					if vals, err = varints(x, vals); err != nil {
						return nil, err
					}
				}
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			p.samples = append(p.samples, s)
		case fProfLocation:
			lf, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var funcs []uint64
			for _, x := range lf {
				switch x.num {
				case fLocID:
					id = x.varint
				case fLocLine:
					line, err := pbFields(x.bytes)
					if err != nil {
						return nil, err
					}
					for _, y := range line {
						if y.num == fLineFunc {
							funcs = append(funcs, y.varint)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case fProfFunction:
			ff, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			var name int64
			for _, x := range ff {
				switch x.num {
				case fFuncID:
					id = x.varint
				case fFuncName:
					name = int64(x.varint)
				}
			}
			p.funcName[id] = name
		}
	}
	for _, idx := range p.funcName {
		if idx < 0 || int(idx) >= len(p.strings) {
			return nil, fmt.Errorf("function name index %d outside string table", idx)
		}
	}
	return p, nil
}

// allocSnapshot is the runtime's cumulative allocation profile. The
// runtime keeps one record per call stack and object size.
type allocSnapshot map[allocKey]runtime.MemProfileRecord

type allocKey struct {
	stack [32]uintptr
	size  int64
}

// takeAllocSnapshot forces a GC so the profile covers every allocation
// made so far, then copies it.
func takeAllocSnapshot() allocSnapshot {
	runtime.GC()
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	snap := make(allocSnapshot, len(recs))
	for _, r := range recs {
		if r.AllocObjects > 0 {
			snap[allocKey{r.Stack0, r.AllocBytes / r.AllocObjects}] = r
		}
	}
	return snap
}

// allocsByLayer attributes the allocations sampled between two
// snapshots, unsampled at the given MemProfileRate the way pprof does.
func allocsByLayer(before, after allocSnapshot, rate int) map[string]float64 {
	out := make(map[string]float64)
	for key, r := range after {
		objs := r.AllocObjects - before[key].AllocObjects
		size := r.AllocBytes - before[key].AllocBytes
		if objs <= 0 || size <= 0 {
			continue
		}
		out[attribute(symbolize(r.Stack()))] += unsample(objs, size, rate)
	}
	return out
}

// unsample scales a sampled object count to an estimate of the true
// count (runtime/pprof's scaleHeapSample).
func unsample(objs, size int64, rate int) float64 {
	if rate <= 1 {
		return float64(objs)
	}
	avg := float64(size) / float64(objs)
	return float64(objs) / (1 - math.Exp(-avg/float64(rate)))
}

// symbolize turns return PCs into function names, innermost first,
// with inlined calls expanded.
func symbolize(pcs []uintptr) []string {
	frames := runtime.CallersFrames(pcs)
	var out []string
	for {
		f, more := frames.Next()
		if f.Function != "" {
			out = append(out, f.Function)
		}
		if !more {
			return out
		}
	}
}
