// Command perfbench is the repository benchmark. It runs one named
// workload against the simulator and the campaign service in-process,
// checks every output it gets, and prints its metrics as the last line
// of standard output:
//
//	perfbench --workload figures|service-cold|service-hot --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it
// measures the same workload twice, untraced then traced (spans, CPU
// and allocation profiles), each for half the time, and prints the
// per-layer metrics. README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	out     string // scratch directory: stores, profiles, span traces
	repo    string // repository root, for the committed goldens
}

// workload is one benchmark workload. setup runs setupReps times,
// timing itself (tearing down an earlier instance is not set-up time),
// and leaves the last instance ready; measure may run twice
// (untraced, then traced) on that instance.
type workload interface {
	setupReps() int
	setup(rep int) (time.Duration, error)
	printMix()
	measure(seconds float64, spans *spanLog) (*window, error)
	// verify checks a window's outputs by recomputing them, outside
	// both the timed window and the profiles.
	verify(w *window, traced bool)
	// endToEnd reports the end-to-end metrics of an untraced window
	// (setup_s is added by the caller) and prints the per-workload
	// report lines.
	endToEnd(w *window) map[string]metric
	// throughput is the window's work rate, the basis of trace_overhead.
	throughput(w *window) float64
	// opsForAllocs is the denominator of allocs.<layer>.
	opsForAllocs(w *window) float64
	// layer adds the workload's own per-layer metrics for a traced window.
	layer(w *window, out map[string]metric) error
	close() error
}

func main() {
	name := flag.String("workload", "", "figures, service-cold or service-hot")
	seed := flag.Int64("seed", 1, "traffic and order seed")
	seconds := flag.Float64("seconds", 20, "measured seconds (split in halves when traced)")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "scratch directory, emptied first")
	repo := flag.String("repo", ".", "repository root")
	flag.Parse()

	// The CLIs run the allocation-heavy simulator with a high GC
	// target; the benchmark measures it the same way.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}
	res, err := run(*name, config{seed: *seed, seconds: *seconds, out: *out, repo: *repo}, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func newWorkload(name string, cfg config) (workload, error) {
	switch name {
	case "figures":
		return newFigures(cfg), nil
	case "service-cold":
		return newCold(cfg), nil
	case "service-hot":
		return newHot(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, service-cold or service-hot)", name)
}

func run(name string, cfg config, traced bool) (*result, error) {
	if err := os.RemoveAll(cfg.out); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	wl, err := newWorkload(name, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Printf("workload %s seed %d (held-out seed for claims: %d)\n", name, cfg.seed, heldOutSeed)
	defer wl.close() // a no-op once closed below
	var setups []float64
	for rep := 0; rep < wl.setupReps(); rep++ {
		d, err := wl.setup(rep)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	wl.printMix()

	res := &result{Metrics: make(map[string]metric)}
	var wins []*window
	if !traced {
		w, err := wl.measure(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		wl.verify(w, false)
		wins = append(wins, w)
		res.Metrics = wl.endToEnd(w)
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		reportf("setup_s", median(setups), "s", "median of %d set-ups", len(setups))
	} else {
		plain, err := wl.measure(cfg.seconds/2, nil)
		if err != nil {
			return nil, err
		}
		wl.verify(plain, false)
		spans := newSpanLog(name)
		prof, err := startProfiler(filepath.Join(cfg.out, name+".cpu.pprof"))
		if err != nil {
			return nil, err
		}
		w, err := wl.measure(cfg.seconds/2, spans)
		if err != nil {
			return nil, err
		}
		cpu, allocs, err := prof.stop()
		if err != nil {
			return nil, err
		}
		wl.verify(w, true)
		wins = append(wins, plain, w)
		if err := writeSpans(spans, filepath.Join(cfg.out, name+".spans.json")); err != nil {
			return nil, err
		}
		layerMetrics(res.Metrics, cpu, allocs, wl.opsForAllocs(w))
		res.Metrics["trace_overhead"] = metric{ratio(wl.throughput(plain), wl.throughput(w)), "ratio"}
		if err := wl.layer(w, res.Metrics); err != nil {
			return nil, err
		}
	}
	for _, w := range wins {
		res.Attempted += w.attempted
		res.Failed += w.failed
		for _, f := range w.failures {
			fmt.Println("FAILED:", f)
		}
	}
	reportf("error_rate", ratio(float64(res.Failed), float64(res.Attempted)), "ratio",
		"%d failed of %d attempted", res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if err := wl.close(); err != nil {
		return nil, err
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	printMetrics(res.Metrics)
	return res, nil
}

// layerMetrics adds the profile-derived per-layer metrics.
func layerMetrics(out map[string]metric, cpu *cpuShares, allocs map[string]float64, ops float64) {
	shares := make(map[string]float64)
	cpu.metrics(shares)
	for k, v := range shares {
		unit := "share"
		if k == "cpu.samples" {
			unit = "count"
		}
		out[k] = metric{v, unit}
	}
	var total float64
	for _, l := range layers {
		out["allocs."+l] = metric{ratio(allocs[l], ops), "allocs/op"}
		total += allocs[l]
	}
	out["allocs.total"] = metric{ratio(total, ops), "allocs/op"}
}

func writeSpans(l *spanLog, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reportf prints one per-workload metric line ahead of the result.
func reportf(name string, v float64, unit, format string, args ...any) {
	fmt.Printf("  %-22s %14.6g %-12s %s\n", name, v, unit, fmt.Sprintf(format, args...))
}

// tailReport prints a median and tail pair for one latency class.
func tailReport(prefix string, samples []float64) (p50, tailV float64) {
	p, t := tail(samples)
	p50 = median(samples)
	reportf(prefix+"_p50_ms", p50, "ms", "n=%d", len(samples))
	reportf(prefix+"_tail_ms", t, "ms", "p%g, n=%d", p, len(samples))
	return p50, t
}

func printMetrics(m map[string]metric) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("metrics:")
	for _, k := range keys {
		fmt.Printf("  %-32s %16.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}
