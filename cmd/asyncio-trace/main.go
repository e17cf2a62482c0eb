// Command asyncio-trace runs one workload on a simulated system and
// writes its per-epoch trace as CSV — the input format cmd/iomodel fits
// the paper's model to. Together they form the offline half of the
// feedback loop: capture a history, fit the model, decide the mode.
//
// With -trace-json it additionally exports the run's span trees and
// metric series as Chrome trace-event JSON (open in ui.perfetto.dev);
// with -metrics it dumps the metrics registry as CSV; with -critpath
// and/or -pprof it records the run's causal wait-for graph and writes
// the analyzed critical-path profile (JSON plus a summary table on
// stderr, and a pprof protobuf for go tool pprof) — the Perfetto
// export then carries a "critical path" overlay row. All exports (and
// the CSV) survive an aborted run: a crash-injected run flushes its
// partial report before exiting non-zero.
//
// Crash-consistency runs (vpic only): -checkpoint-every N commits a
// durable checkpoint every N epochs (all ranks drain, rank 0 fsyncs);
// -journal captures a write-ahead journal of asynchronous writes. A run
// whose fault spec kills a rank or node (crashrank=/crashnode=) then
// tears the un-fsynced write-back cache at -durability granularity,
// scans the journal against the surviving image, replays what it can,
// and prints the classification.
//
// Usage:
//
//	asyncio-trace -workload vpic -system summit -nodes 16 -mode adaptive -steps 8 -o trace.csv
//	asyncio-trace -workload bdcats -system cori -nodes 4 -mode async
//	asyncio-trace -workload vpic -nodes 2 -steps 2 -mode async -trace-json run.json -metrics run-metrics.csv
//	asyncio-trace -workload vpic -nodes 1 -steps 6 -mode async -faults "crashrank=3@95s" -checkpoint-every 2 -journal
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"asyncio/internal/cliflags"
	"asyncio/internal/core"
	"asyncio/internal/critpath"
	"asyncio/internal/perfetto"
	"asyncio/internal/pfs"
	"asyncio/internal/recovery"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/workloads/bdcats"
	"asyncio/internal/workloads/castro"
	"asyncio/internal/workloads/eqsim"
	"asyncio/internal/workloads/harness"
	"asyncio/internal/workloads/nyx"
	"asyncio/internal/workloads/vpicio"
)

func main() {
	var (
		workload = flag.String("workload", "vpic", "vpic | bdcats | nyx | castro | eqsim")
		system   = flag.String("system", "summit", "summit | cori")
		nodes    = flag.Int("nodes", 16, "allocation size in nodes")
		modeStr  = flag.String("mode", "adaptive", "sync | async | adaptive")
		steps    = flag.Int("steps", 8, "epochs (checkpoints/time steps)")
		compute  = flag.Duration("compute", 30*time.Second, "computation phase per epoch")
		out      = flag.String("o", "", "output CSV path (default stdout)")
	)
	cf := cliflags.Register(flag.CommandLine)
	flag.Parse()

	var mode core.Mode
	switch *modeStr {
	case "sync":
		mode = core.ForceSync
	case "async":
		mode = core.ForceAsync
	case "adaptive":
		mode = core.Adaptive
	default:
		fatalf("unknown mode %q", *modeStr)
	}
	var sysOpts []systems.Option
	in, err := cf.Injector()
	if err != nil {
		fatalf("-faults: %v", err)
	}
	if in != nil {
		sysOpts = append(sysOpts, systems.WithFaults(in))
	}
	if cf.WantCritPath() {
		sysOpts = append(sysOpts, systems.WithCritPath(critpath.NewRecorder()))
	}
	csp, cserr := cf.ConsistencySpec()
	if cserr != nil {
		fatalf("-consistency: %v", cserr)
	}
	var cons *pfs.Consistency
	if csp != nil {
		cons = pfs.NewConsistency(csp)
		sysOpts = append(sysOpts, systems.WithConsistency(cons))
	}
	clk := vclock.New()
	var sys *systems.System
	switch *system {
	case "summit":
		sys = systems.Summit(clk, *nodes, sysOpts...)
	case "cori":
		sys = systems.CoriHaswell(clk, *nodes, sysOpts...)
	default:
		fatalf("unknown system %q", *system)
	}
	if cf.TraceJSON != "" || cf.MetricsCSV != "" {
		sys.Metrics.EnableSeries()
	}

	// Crash-consistency plumbing: a durable write-back store with charged
	// fsync barriers, periodic checkpoints, and (optionally) a write-ahead
	// journal on the asynchronous path.
	var kit *harness.CrashKit
	var ck *harness.Checkpointer
	if *workload == "vpic" && cf.WantDurability() {
		dur, derr := cf.DurabilityConfig()
		if derr != nil {
			fatalf("%v", derr)
		}
		kit = harness.NewCrashKit(dur, recovery.DefaultCost(), cf.Journal)
		ck = harness.NewCheckpointer(cf.CheckpointEvery, kit.Journal)
		ck.Instrument(sys.Metrics)
		kit.Journal.Instrument(sys.Metrics, *workload)
		kit.SetCrit(sys.Crit)
	} else if cf.WantDurability() {
		fatalf("-checkpoint-every/-journal are only wired into the vpic workload")
	}

	var rep *core.Report
	switch *workload {
	case "vpic":
		cfg := vpicio.Config{Steps: *steps, ComputeTime: *compute, Mode: mode}
		if kit != nil {
			cfg.Store = kit.Durable
			cfg.Checkpoint = ck
			if cf.Journal {
				cfg.Env.AsyncInlineStages = kit.InlineStages()
			}
		}
		rep, _, err = vpicio.Run(sys, cfg)
	case "bdcats":
		rep, err = bdcats.Run(sys, bdcats.Config{Steps: *steps, ComputeTime: *compute, Mode: mode}, nil)
	case "nyx":
		cfg := nyx.SmallConfig()
		cfg.Plotfiles = *steps
		cfg.Mode = mode
		rep, err = nyx.Run(sys, cfg)
	case "castro":
		rep, err = castro.Run(sys, castro.Config{Checkpoints: *steps, ComputeTime: *compute, Mode: mode})
	case "eqsim":
		rep, err = eqsim.Run(sys, eqsim.Config{Checkpoints: *steps, Mode: mode})
	default:
		fatalf("unknown workload %q", *workload)
	}
	// An aborted run (injected crash, mid-run failure) still carries a
	// partial report: flush its observability below, then exit non-zero.
	aborted := err != nil && rep != nil && rep.Aborted
	if err != nil && !aborted {
		fatalf("%v", err)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		w = f
	}
	if err := trace.WriteCSV(w, rep.Run.Records); err != nil {
		fatalf("writing CSV: %v", err)
	}
	if cf.TraceJSON != "" {
		f, err := os.Create(cf.TraceJSON)
		if err != nil {
			fatalf("%v", err)
		}
		if err := perfetto.WriteProfile(f, rep.Spans, rep.Metrics, rep.CritPath); err != nil {
			fatalf("writing trace JSON: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing trace JSON: %v", err)
		}
	}
	if cf.MetricsCSV != "" {
		f, err := os.Create(cf.MetricsCSV)
		if err != nil {
			fatalf("%v", err)
		}
		label := fmt.Sprintf("%s-%s-%dn-%s", *workload, sys.Name, sys.Nodes(), *modeStr)
		if err := rep.Metrics.WriteCSV(f, label); err != nil {
			fatalf("writing metrics CSV: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing metrics CSV: %v", err)
		}
	}
	if err := cf.ExportProfile(rep.CritPath, os.Stderr); err != nil {
		fatalf("-critpath/-pprof: %v", err)
	}
	fmt.Fprintf(os.Stderr, "%s on %s, %d nodes (%d ranks), %d epochs, mode=%s: total %v, peak %.2f GB/s\n",
		*workload, sys.Name, sys.Nodes(), rep.Run.Ranks, len(rep.Run.Records), *modeStr,
		rep.Run.TotalTime().Round(time.Millisecond), rep.Run.PeakRate()/1e9)
	if cons != nil {
		fmt.Fprintf(os.Stderr, "consistency: %s, visibility wait %v\n",
			cons.Checker().Summary(), time.Duration(cons.VisibilityWaitNs()))
		if cerr := cons.Checker().Check(); cerr != nil && !aborted {
			fatalf("consistency check: %v", cerr)
		}
	}
	if aborted {
		for _, cr := range rep.Crashes {
			fmt.Fprintf(os.Stderr, "crash at %v: ranks %v (%s)\n", cr.At, cr.Ranks, cr.Err)
		}
		if kit != nil {
			// Power-loss semantics: tear the un-fsynced cache into the base
			// image, then scan the journal against what survived.
			if pr := kit.Durable.Crash(clk.Now()); pr != nil {
				fmt.Fprintf(os.Stderr, "write-back cache at crash: %d dirty bytes → %d flushed, %d torn, %d lost\n",
					pr.DirtyBytes, pr.Flushed, pr.Torn, pr.Lost)
			}
			scan := recovery.Scan(kit.Journal.Bytes(), kit.Base, recovery.ScanOptions{Replay: true})
			fmt.Fprintf(os.Stderr, "journal scan: %s\n", scan.Summary())
			fmt.Fprintf(os.Stderr, "last durable checkpoint: epoch %d (restart from %d)\n",
				ck.LastDurable(), ck.LastDurable()+1)
		}
		fatalf("run aborted: %v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asyncio-trace: "+format+"\n", args...)
	os.Exit(1)
}
