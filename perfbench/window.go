package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// window is one timed measurement: latencies by class, operation and
// failure counts, and the process-wide counters (simulated events, heap
// allocations, peak heap) sampled at its edges.
type window struct {
	start, stop time.Time
	events0     int64
	events      int64
	allocs0     uint64
	allocs      uint64

	heapStop chan struct{}
	heapDone chan struct{}
	peakHeap uint64  // largest heap sample, garbage included
	liveSum  float64 // of all live-heap samples, for the mean
	heapN    int

	units atomic.Int64 // workload-defined units of work done (points, requests)

	mu        sync.Mutex
	lat       map[string][]float64 // ms
	attempted int
	failed    int
	failures  []string

	spans *spanLog // nil unless traced
}

var allocMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
}

// heapAllocs is the cumulative count of heap allocations, tiny ones
// included (the count runtime.MemStats.Mallocs reports, without
// stopping the world).
func heapAllocs() uint64 {
	s := append([]metrics.Sample(nil), allocMetrics...)
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// heapBytes returns the heap's object bytes (live plus not yet swept
// garbage) and its live bytes as of the last GC.
func heapBytes() (objects, live uint64) {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// heapSampleEvery is the heap sampling period.
const heapSampleEvery = 5 * time.Millisecond

func beginWindow(spans *spanLog) *window {
	w := &window{lat: make(map[string][]float64), spans: spans,
		heapStop: make(chan struct{}), heapDone: make(chan struct{})}
	go w.sampleHeap()
	w.events0 = simEvents()
	w.allocs0 = heapAllocs()
	w.start = time.Now()
	return w
}

func (w *window) sampleHeap() {
	defer close(w.heapDone)
	t := time.NewTicker(heapSampleEvery)
	defer t.Stop()
	for {
		objects, live := heapBytes()
		w.peakHeap = max(w.peakHeap, objects)
		w.liveSum += float64(live)
		w.heapN++
		select {
		case <-w.heapStop:
			return
		case <-t.C:
		}
	}
}

// end closes the window; every operation it counts must have finished.
func (w *window) end() {
	w.stop = time.Now()
	w.events = simEvents() - w.events0
	w.allocs = heapAllocs() - w.allocs0
	close(w.heapStop)
	<-w.heapDone
}

func (w *window) seconds() float64 { return w.stop.Sub(w.start).Seconds() }

// heap prints the window's peak heap and mean live heap and returns the
// latter as the heap_mb metric. The peak is one sample at the top of one
// GC cycle: how far garbage piles up before a collection finishes moves
// with GC timing and machine load. The live heap each collection leaves
// is what the program needs, and its mean over the window is steady.
func (w *window) heap() metric {
	mean := ratio(w.liveSum, float64(w.heapN)) / 1e6
	reportf("peak_heap_mb", float64(w.peakHeap)/1e6, "MB", "heap object bytes, sampled every %v", heapSampleEvery)
	reportf("heap_mb", mean, "MB", "mean live heap after GC, %d samples", w.heapN)
	return metric{mean, "MB"}
}

// observe records one successful operation of a latency class.
func (w *window) observe(class string, d time.Duration) {
	w.mu.Lock()
	w.attempted++
	w.lat[class] = append(w.lat[class], ms(d))
	w.mu.Unlock()
}

// fail records one failed operation. Failures carry no latency.
func (w *window) fail(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.attempted++
	w.failed++
	if len(w.failures) < 10 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

// record adds a duration to a class without counting an operation
// (e.g. the wall time of a whole pass).
func (w *window) record(class string, d time.Duration) {
	w.mu.Lock()
	w.lat[class] = append(w.lat[class], ms(d))
	w.mu.Unlock()
}

// invalidate turns an operation already observed as a success into a
// failure, when a later check finds its output wrong.
func (w *window) invalidate(format string, args ...any) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.failed++
	if len(w.failures) < 10 {
		w.failures = append(w.failures, fmt.Sprintf(format, args...))
	}
}

func (w *window) samples(class string) []float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]float64(nil), w.lat[class]...)
}

// profiler takes the traced window's CPU profile and allocation delta.
type profiler struct {
	cpuPath string
	cpuFile *os.File
	before  allocSnapshot
	rate    int
}

// tracedMemProfileRate samples about one allocation per 4 KiB, enough
// to attribute allocations to layers without dominating the run.
const tracedMemProfileRate = 4096

func startProfiler(cpuPath string) (*profiler, error) {
	f, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	runtime.MemProfileRate = tracedMemProfileRate
	p := &profiler{cpuPath: cpuPath, cpuFile: f, rate: tracedMemProfileRate}
	p.before = takeAllocSnapshot()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// stop ends profiling and reduces both profiles to per-layer numbers.
func (p *profiler) stop() (*cpuShares, map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.cpuFile.Close(); err != nil {
		return nil, nil, err
	}
	allocs := allocsByLayer(p.before, takeAllocSnapshot(), p.rate)
	data, err := os.ReadFile(p.cpuPath)
	if err != nil {
		return nil, nil, err
	}
	cpu, err := parseCPUProfile(data)
	return cpu, allocs, err
}
