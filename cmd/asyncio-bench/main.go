// Command asyncio-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	asyncio-bench -list
//	asyncio-bench -exp fig3a
//	asyncio-bench -exp all -scale reduced
//	asyncio-bench -exp fig8 -scale full
//
// Every experiment prints an aligned text table with the same series
// the paper plots (measured sync/async plus the model's estimates).
// The full scale reproduces the paper's node counts — up to 2,048
// Summit nodes (12,288 ranks) — and takes minutes; the reduced scale
// finishes in seconds.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/debug"
	"sort"
	"time"

	"asyncio/internal/cliflags"
	"asyncio/internal/core"
	"asyncio/internal/experiments"
	"asyncio/internal/metrics"
	"asyncio/internal/perfetto"
	"asyncio/internal/simbench"
)

func main() {
	var (
		exp          = flag.String("exp", "", "experiment id (see -list) or \"all\"")
		scale        = flag.String("scale", "reduced", "sweep scale: reduced or full")
		list         = flag.Bool("list", false, "list experiment ids and exit")
		timings      = flag.Bool("timings", false, "print wall-clock time per experiment")
		parallel     = flag.Int("parallel", 0, "workers for independent experiment points (0 = GOMAXPROCS, 1 = serial)")
		selfbench    = flag.Bool("selfbench", false, "benchmark the simulator itself and exit")
		selfbenchOut = flag.String("selfbench-out", "BENCH_simulator.json", "where -selfbench writes its JSON report")
	)
	cf := cliflags.Register(flag.CommandLine)
	flag.Parse()

	// The simulator is allocation-heavy and latency-insensitive; a high
	// GC target trades heap headroom for a large wall-clock win on the
	// big sweeps. An explicit GOGC still takes precedence.
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(400)
	}

	if err := experiments.SetDefaultFaults(cf.Faults); err != nil {
		fatalf("-faults: %v", err)
	}
	// Durability flags parameterize the crash experiments' write-back
	// model; the per-run checkpoint/journal switches belong to
	// asyncio-trace (crash sweeps schedule checkpoints themselves).
	if cf.WantDurability() {
		fatalf("-checkpoint-every/-journal configure a single run; use asyncio-trace (crash experiments sweep checkpoint intervals themselves)")
	}
	dur, derr := cf.DurabilityConfig()
	if derr != nil {
		fatalf("%v", derr)
	}
	experiments.SetDefaultDurability(&dur)
	csp, cerr := cf.ConsistencySpec()
	if cerr != nil {
		fatalf("-consistency: %v", cerr)
	}
	experiments.SetDefaultConsistency(csp)
	experiments.SetParallelism(*parallel)

	if *selfbench {
		runSelfbench(*scale, *selfbenchOut)
		return
	}

	reg := experiments.Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	if *list {
		for _, id := range ids {
			fmt.Println(id)
		}
		return
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "usage: asyncio-bench -exp <id>|all [-scale reduced|full]")
		fmt.Fprintln(os.Stderr, "known experiments:", ids)
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scale {
	case "reduced":
		sc = experiments.ReducedScale()
	case "full":
		sc = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (want reduced or full)\n", *scale)
		os.Exit(2)
	}

	run := ids
	if *exp != "all" {
		if reg[*exp] == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; known: %v\n", *exp, ids)
			os.Exit(2)
		}
		run = []string{*exp}
	}

	// Experiments construct their systems (and so their registries)
	// internally; the observer hook collects each completed run's report
	// so observability data can be exported without touching every
	// experiment. The observer's report order is part of the output
	// (metrics CSV labels, "last run" trace selection), so observed
	// generation forces serial sweeps regardless of -parallel.
	var reports []*core.Report
	if cf.WantObservability() {
		if cf.TraceJSON != "" || cf.MetricsCSV != "" {
			metrics.SetSeriesDefault(true)
		}
		if cf.WantCritPath() {
			experiments.SetCritPathProfiling(true)
		}
		core.SetRunObserver(func(rep *core.Report) { reports = append(reports, rep) })
		defer core.SetRunObserver(nil)
		experiments.SetParallelism(1)
	}

	for _, id := range run {
		start := time.Now()
		tab, err := reg[id](sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
			os.Exit(1)
		}
		if err := tab.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: rendering: %v\n", id, err)
			os.Exit(1)
		}
		if *timings {
			fmt.Printf("(%s generated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		}
	}

	if cf.MetricsCSV != "" {
		f, err := os.Create(cf.MetricsCSV)
		if err != nil {
			fatalf("%v", err)
		}
		for i, rep := range reports {
			label := fmt.Sprintf("run%03d-%s-%s-%s-%dr", i, rep.Run.Workload, rep.Run.System, rep.Run.Mode, rep.Run.Ranks)
			if err := rep.Metrics.WriteCSV(f, label); err != nil {
				fatalf("writing metrics CSV: %v", err)
			}
		}
		if err := f.Close(); err != nil {
			fatalf("closing metrics CSV: %v", err)
		}
	}
	if cf.TraceJSON != "" {
		if len(reports) == 0 {
			fatalf("-trace-json: no runs were observed")
		}
		last := reports[len(reports)-1]
		f, err := os.Create(cf.TraceJSON)
		if err != nil {
			fatalf("%v", err)
		}
		if err := perfetto.WriteProfile(f, last.Spans, last.Metrics, last.CritPath); err != nil {
			fatalf("writing trace JSON: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing trace JSON: %v", err)
		}
	}
	if cf.WantCritPath() {
		if len(reports) == 0 {
			fatalf("-critpath/-pprof: no runs were observed")
		}
		if err := cf.ExportProfile(reports[len(reports)-1].CritPath, os.Stdout); err != nil {
			fatalf("-critpath/-pprof: %v", err)
		}
	}
}

// runSelfbench benchmarks the simulator itself (engine microbenchmarks
// plus a stable subset of figure generators) and writes the JSON report
// both to stdout and to the given path.
func runSelfbench(scale, out string) {
	var sc experiments.Scale
	switch scale {
	case "reduced":
		sc = experiments.ReducedScale()
	case "full":
		sc = experiments.FullScale()
	default:
		fatalf("unknown scale %q (want reduced or full)", scale)
	}
	rep, err := simbench.Run(sc)
	if err != nil {
		fatalf("selfbench: %v", err)
	}
	if err := rep.WriteJSON(os.Stdout); err != nil {
		fatalf("selfbench: %v", err)
	}
	f, err := os.Create(out)
	if err != nil {
		fatalf("selfbench: %v", err)
	}
	if err := rep.WriteJSON(f); err != nil {
		fatalf("selfbench: writing %s: %v", out, err)
	}
	if err := f.Close(); err != nil {
		fatalf("selfbench: closing %s: %v", out, err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asyncio-bench: "+format+"\n", args...)
	os.Exit(1)
}
