package experiments

import (
	"fmt"
	"sort"
	"time"

	"asyncio/internal/core"
	"asyncio/internal/model"
	"asyncio/internal/stats"
	"asyncio/internal/systems"
	"asyncio/internal/workloads/bdcats"
	"asyncio/internal/workloads/castro"
	"asyncio/internal/workloads/cosmoflow"
	"asyncio/internal/workloads/eqsim"
	"asyncio/internal/workloads/nyx"
	"asyncio/internal/workloads/vpicio"
)

// Generator regenerates one figure at the given scale.
type Generator func(Scale) (*Table, error)

// Registry maps experiment ids (as in DESIGN.md) to generators.
func Registry() map[string]Generator {
	reg := map[string]Generator{
		"fig1":            Fig1Scenarios,
		"fig7":            Fig7NyxOverlapCori,
		"fig8":            Fig8VPICVariability,
		"r2":              ModelAccuracy,
		"faultsweep":      FaultSweep,
		"crashsweep":      CrashSweep,
		"micro-mem":       MicroMemcpy,
		"micro-gpu":       MicroGPUTransfer,
		"abl-zerocopy":    AblationZeroCopy,
		"abl-fit":         AblationFitKinds,
		"abl-staging":     AblationStaging,
		"abl-bb":          AblationBurstBuffer,
		"abl-agg":         AblationAggregation,
		"abl-blame":       AblationBlame,
		"abl-consistency": AblationConsistency,
	}
	for id := range sweepSpecs() {
		id := id
		reg[id] = func(scale Scale) (*Table, error) { return genSweep(id, scale) }
	}
	return reg
}

// newSystem builds a fresh clock+system for one run, attaching the
// process-wide default fault schedule, consistency model, and
// critical-path profiling when they are installed. Callers that
// cannot use the globals (concurrent differently-configured runs) build
// systems through an explicit RunKnobs instead.
func newSystem(name string, nodes int, opts ...systems.Option) *systems.System {
	return snapshotKnobs().newSystem(name, nodes, opts...)
}

// runFn executes one workload run on a fresh system and returns its
// report.
type runFn func(sysName string, nodes int, mode core.Mode) (*core.Report, error)

// sweepPoint is one (scale point, mode) measurement: the peak aggregate
// rate (what the paper plots) plus the model's per-configuration
// estimate, which the runtime derives from that configuration's own
// epoch history (mean observed rate — the Fig. 2 feedback loop's view).
type sweepPoint struct {
	nodes, ranks      int
	sync, async       float64 // peak aggregate rates, bytes/s
	syncEst, asyncEst float64 // model estimates from per-run history
}

// SweepPoint is one simulated (nodes, mode) half of a sweep figure: the
// measurements SimulateSweepPoint extracts from a single independent
// run. Point index i maps to node count i/2 with sync (even i) before
// async (odd i), so a figure's point list is a stable, enumerable unit
// of work — the campaign service content-hashes and memoizes exactly
// these.
type SweepPoint struct {
	Ranks     int
	Peak, Est float64
}

// SweepPointCount returns how many independent points the sweep figure
// id simulates at the given scale (two per node count: sync and async).
func SweepPointCount(id string, scale Scale) (int, error) {
	sp, ok := sweepSpecs()[id]
	if !ok {
		return 0, fmt.Errorf("experiments: %q is not a sweep figure (see SweepIDs)", id)
	}
	return 2 * len(sp.nodes(scale)), nil
}

// SimulateSweepPoint runs exactly one (nodes, mode) half of a sweep
// figure under the given knobs (nil = the process-wide defaults) and
// returns its measurements. Each point is an independent simulation on
// its own clock and system, so any subset of points can be computed on
// any worker — or served from a cache — and reassembled with
// AssembleSweepPoints into output byte-identical to the full sweep.
func SimulateSweepPoint(id string, scale Scale, i int, k *RunKnobs) (SweepPoint, error) {
	sp, ok := sweepSpecs()[id]
	if !ok {
		return SweepPoint{}, fmt.Errorf("experiments: %q is not a sweep figure (see SweepIDs)", id)
	}
	nodeCounts := sp.nodes(scale)
	if i < 0 || i >= 2*len(nodeCounts) {
		return SweepPoint{}, fmt.Errorf("experiments: %s point %d out of range [0,%d)", id, i, 2*len(nodeCounts))
	}
	nodes := nodeCounts[i/2]
	mode := core.ForceSync
	if i%2 == 1 {
		mode = core.ForceAsync
	}
	rep, err := sp.run(scale, k.orDefaults())(sp.sys, nodes, mode)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("%s %d nodes %v: %w", sp.sys, nodes, mode, err)
	}
	return SweepPoint{Ranks: rep.Run.Ranks, Peak: rep.Run.PeakRate(), Est: stats.Mean(rep.Run.Rates())}, nil
}

// AssembleSweepPoints packs index-ordered per-point results (as produced
// by SimulateSweepPoint) into the SweepData AssembleSweep fits and
// renders. The halves must cover every point exactly once.
func AssembleSweepPoints(id string, scale Scale, halves []SweepPoint) (*SweepData, error) {
	sp, ok := sweepSpecs()[id]
	if !ok {
		return nil, fmt.Errorf("experiments: %q is not a sweep figure (see SweepIDs)", id)
	}
	nodeCounts := sp.nodes(scale)
	if len(halves) != 2*len(nodeCounts) {
		return nil, fmt.Errorf("experiments: %s expects %d points, got %d", id, 2*len(nodeCounts), len(halves))
	}
	pts := make([]sweepPoint, len(nodeCounts))
	for i, nodes := range nodeCounts {
		s, a := halves[2*i], halves[2*i+1]
		pts[i] = sweepPoint{
			nodes: nodes, ranks: s.Ranks,
			sync: s.Peak, syncEst: s.Est,
			async: a.Peak, asyncEst: a.Est,
		}
	}
	return &SweepData{ID: id, pts: pts}, nil
}

// estKind selects how a figure's dotted estimate lines are derived.
type estKind int

const (
	// estRegression fits one global regression across the sweep
	// (linear-log for sync, linear in ranks for async) — the §V-A1
	// treatment of the weak-scaling kernels in Fig. 3.
	estRegression estKind = iota
	// estHistory uses each configuration's own run history (the Fig. 2
	// feedback loop): "estimate the I/O performance based on the best
	// maximum I/O rates from previous iterations" (§V-A5). Right for
	// the strong-scaling application figures, whose peak-shaped curves
	// no single regression form fits.
	estHistory
)

// rateTable renders a sweep as the paper's standard four series:
// measured sync/async plus the model's dotted estimate lines.
func rateTable(id, title string, pts []sweepPoint, kind estKind) *Table {
	t := &Table{ID: id, Title: title, XLabel: "MPI ranks", YLabel: "GB/s"}
	n := len(pts)
	ranks := make([]float64, n)
	syncY := make([]float64, n)
	asyncY := make([]float64, n)
	for i, p := range pts {
		ranks[i] = float64(p.ranks)
		syncY[i] = gb(p.sync)
		asyncY[i] = gb(p.async)
	}
	t.Series = append(t.Series,
		Series{Name: "sync", X: ranks, Y: syncY},
		Series{Name: "async", X: ranks, Y: asyncY},
	)
	switch kind {
	case estRegression:
		if fit, err := stats.LinearLog(ranks, syncY); err == nil {
			est := make([]float64, n)
			for i, r := range ranks {
				est[i] = fit.EvalLinearLog(r)
			}
			t.Series = append(t.Series, Series{Name: "sync est", X: ranks, Y: est})
			t.note("sync fit linear-log(ranks): r²=%.3f", fit.R2)
		}
		if fit, err := stats.Linear(ranks, asyncY); err == nil {
			est := make([]float64, n)
			for i, r := range ranks {
				est[i] = fit.EvalLinear(r)
			}
			t.Series = append(t.Series, Series{Name: "async est", X: ranks, Y: est})
			t.note("async fit linear(ranks): r²=%.3f", fit.R2)
		}
	case estHistory:
		syncEst := make([]float64, n)
		asyncEst := make([]float64, n)
		for i, p := range pts {
			syncEst[i] = gb(p.syncEst)
			asyncEst[i] = gb(p.asyncEst)
		}
		t.Series = append(t.Series,
			Series{Name: "sync est", X: ranks, Y: syncEst},
			Series{Name: "async est", X: ranks, Y: asyncEst},
		)
		t.note("estimates from each configuration's run history: sync r²=%.3f, async r²=%.3f",
			stats.R2(syncEst, syncY), stats.R2(asyncEst, asyncY))
	}
	return t
}

// sweepSpec declares a plain rate figure — a (nodes × mode) sweep of
// one workload on one system — in two separable phases: run(scale)
// produces the simulation runner (the expensive part), and the
// title/kind/notes drive assembly into a Table (regression fits, cheap).
// The split lets the wall-clock benchmarks time simulation without
// re-fitting tables, and keeps every such figure on the parallel sweep
// path.
type sweepSpec struct {
	title string
	sys   string
	nodes func(Scale) []int
	run   func(Scale, *RunKnobs) runFn
	kind  estKind
	notes []string
}

func summitNodes(s Scale) []int { return s.SummitNodes }
func coriNodes(s Scale) []int   { return s.CoriNodes }

func vpicRun(scale Scale, k *RunKnobs) runFn {
	return func(sn string, n int, mode core.Mode) (*core.Report, error) {
		rep, _, err := vpicio.Run(k.newSystem(sn, n), vpicio.Config{
			Steps: scale.Steps, ComputeTime: 30 * time.Second, Mode: mode,
		})
		return rep, err
	}
}

func bdcatsRun(scale Scale, k *RunKnobs) runFn {
	return func(sn string, n int, mode core.Mode) (*core.Report, error) {
		return bdcats.Run(k.newSystem(sn, n), bdcats.Config{
			Steps: scale.Steps, ComputeTime: 30 * time.Second, Mode: mode,
		}, nil)
	}
}

func nyxRun(scale Scale, k *RunKnobs, large bool) runFn {
	return func(sn string, n int, mode core.Mode) (*core.Report, error) {
		cfg := nyx.SmallConfig()
		if large {
			cfg = nyx.LargeConfig()
		}
		cfg.Plotfiles = scale.Steps
		cfg.TimePerStep = 2 * time.Second
		cfg.Mode = mode
		return nyx.Run(k.newSystem(sn, n), cfg)
	}
}

func castroRun(scale Scale, k *RunKnobs) runFn {
	return func(sn string, n int, mode core.Mode) (*core.Report, error) {
		return castro.Run(k.newSystem(sn, n), castro.Config{
			Checkpoints: scale.Steps, ComputeTime: 25 * time.Second, Mode: mode,
		})
	}
}

func sweepSpecs() map[string]sweepSpec {
	return map[string]sweepSpec{
		"fig3a": {
			title: "VPIC-IO write aggregate bandwidth, Summit (weak scaling)",
			sys:   "summit", nodes: summitNodes, run: vpicRun, kind: estRegression,
			notes: []string{"compute phase 30 s; 8 properties × 8Mi particles (≈32 MB/property) per rank"},
		},
		"fig3b": {
			title: "VPIC-IO write aggregate bandwidth, Cori-Haswell (weak scaling)",
			sys:   "cori", nodes: coriNodes, run: vpicRun, kind: estRegression,
			notes: []string{"compute phase 30 s; 8 properties × 8Mi particles (≈32 MB/property) per rank"},
		},
		"fig3c": {
			title: "BD-CATS-IO read aggregate bandwidth, Summit (weak scaling)",
			sys:   "summit", nodes: summitNodes, run: bdcatsRun, kind: estRegression,
			notes: []string{"first time step reads synchronously; later steps are served from prefetch staging"},
		},
		"fig3d": {
			title: "BD-CATS-IO read aggregate bandwidth, Cori-Haswell (weak scaling)",
			sys:   "cori", nodes: coriNodes, run: bdcatsRun, kind: estRegression,
			notes: []string{"first time step reads synchronously; later steps are served from prefetch staging"},
		},
		"fig4a": {
			title: "Nyx (large, 2048³) plotfile aggregate bandwidth, Summit (strong scaling)",
			sys:   "summit", nodes: summitNodes,
			run:   func(s Scale, k *RunKnobs) runFn { return nyxRun(s, k, true) },
			kind:  estHistory,
			notes: []string{"plotfile every 50 steps; per-rank data shrinks with rank count"},
		},
		"fig4b": {
			title: "Nyx (small, 256³) plotfile aggregate bandwidth, Cori-Haswell (strong scaling)",
			sys:   "cori", nodes: coriNodes,
			run:   func(s Scale, k *RunKnobs) runFn { return nyxRun(s, k, false) },
			kind:  estHistory,
			notes: []string{"small per-rank requests keep sync poor and cap the async staging rate (§V-A3)"},
		},
		"fig4c": {
			title: "Castro checkpoint aggregate bandwidth, Summit (strong scaling)",
			sys:   "summit", nodes: summitNodes, run: castroRun, kind: estHistory,
			notes: []string{"128³ domain, 6 components, 2 particles/cell"},
		},
		"fig4d": {
			title: "Castro checkpoint aggregate bandwidth, Cori-Haswell (strong scaling)",
			sys:   "cori", nodes: coriNodes, run: castroRun, kind: estHistory,
			notes: []string{"128³ domain, 6 components, 2 particles/cell"},
		},
		"fig5": {
			title: "Cosmoflow batch-read aggregate bandwidth, Summit",
			sys:   "summit", nodes: summitNodes,
			run: func(scale Scale, k *RunKnobs) runFn {
				return func(sn string, n int, mode core.Mode) (*core.Report, error) {
					return cosmoflow.Run(k.newSystem(sn, n), cosmoflow.Config{
						Epochs: 1, StepsPerEpoch: scale.Steps + 1,
						TrainTime: 60 * time.Second, Mode: mode,
					})
				}
			},
			kind:  estHistory,
			notes: []string{"128³ voxel samples, batch size 8; async = double-buffered DataLoader"},
		},
		"fig6": {
			title: "EQSIM checkpoint aggregate bandwidth, Summit (strong scaling)",
			sys:   "summit", nodes: summitNodes,
			run: func(scale Scale, k *RunKnobs) runFn {
				return func(sn string, n int, mode core.Mode) (*core.Report, error) {
					return eqsim.Run(k.newSystem(sn, n), eqsim.Config{
						Checkpoints: scale.Steps, Mode: mode,
					})
				}
			},
			kind:  estHistory,
			notes: []string{"grid 600×600×340 (h=50), checkpoint every 100 steps"},
		},
	}
}

// SweepData holds the simulated points of one sweep figure, ready for
// AssembleSweep. It separates the expensive phase (simulation) from the
// cheap one (fits and table assembly) so benchmarks can time them apart.
type SweepData struct {
	ID  string
	pts []sweepPoint
}

// SweepIDs lists the figures that expose the two-phase
// SimulateSweep/AssembleSweep path, sorted.
func SweepIDs() []string {
	specs := sweepSpecs()
	ids := make([]string, 0, len(specs))
	for id := range specs {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// SimulateSweep runs only the simulations of a sweep figure (in
// parallel across points, under the process-wide default knobs read
// once up front) and returns the collected points. Every point is an
// independent simulation on its own clock and system, so the points
// fan out through RunParallel with each result stored at its index —
// the collected data is identical serial or parallel, and identical to
// computing the points one at a time through SimulateSweepPoint.
func SimulateSweep(id string, scale Scale) (*SweepData, error) {
	n, err := SweepPointCount(id, scale)
	if err != nil {
		return nil, err
	}
	k := snapshotKnobs()
	halves := make([]SweepPoint, n)
	err = RunParallel(n, func(i int) error {
		p, perr := SimulateSweepPoint(id, scale, i, k)
		halves[i] = p
		return perr
	})
	if err != nil {
		return nil, err
	}
	return AssembleSweepPoints(id, scale, halves)
}

// AssembleSweep fits the figure's estimate lines over previously
// simulated points and builds the Table.
func AssembleSweep(d *SweepData) (*Table, error) {
	sp, ok := sweepSpecs()[d.ID]
	if !ok {
		return nil, fmt.Errorf("experiments: %q is not a sweep figure (see SweepIDs)", d.ID)
	}
	t := rateTable(d.ID, sp.title, d.pts, sp.kind)
	for _, n := range sp.notes {
		t.note("%s", n)
	}
	return t, nil
}

func genSweep(id string, scale Scale) (*Table, error) {
	d, err := SimulateSweep(id, scale)
	if err != nil {
		return nil, err
	}
	return AssembleSweep(d)
}

// Fig3aVPICWriteSummit is Fig. 3a: VPIC-IO weak-scaling writes, Summit.
func Fig3aVPICWriteSummit(scale Scale) (*Table, error) { return genSweep("fig3a", scale) }

// Fig3bVPICWriteCori is Fig. 3b: VPIC-IO weak-scaling writes, Cori.
func Fig3bVPICWriteCori(scale Scale) (*Table, error) { return genSweep("fig3b", scale) }

// Fig3cBDCATSReadSummit is Fig. 3c: BD-CATS-IO weak-scaling reads,
// Summit.
func Fig3cBDCATSReadSummit(scale Scale) (*Table, error) { return genSweep("fig3c", scale) }

// Fig3dBDCATSReadCori is Fig. 3d: BD-CATS-IO weak-scaling reads, Cori.
func Fig3dBDCATSReadCori(scale Scale) (*Table, error) { return genSweep("fig3d", scale) }

// Fig4aNyxSummit is Fig. 4a: Nyx large configuration (2048³), Summit,
// strong scaling.
func Fig4aNyxSummit(scale Scale) (*Table, error) { return genSweep("fig4a", scale) }

// Fig4bNyxCori is Fig. 4b: Nyx small configuration (256³), Cori.
func Fig4bNyxCori(scale Scale) (*Table, error) { return genSweep("fig4b", scale) }

// Fig4cCastroSummit is Fig. 4c: Castro, Summit, strong scaling.
func Fig4cCastroSummit(scale Scale) (*Table, error) { return genSweep("fig4c", scale) }

// Fig4dCastroCori is Fig. 4d: Castro, Cori, strong scaling.
func Fig4dCastroCori(scale Scale) (*Table, error) { return genSweep("fig4d", scale) }

// Fig5CosmoflowSummit is Fig. 5: Cosmoflow training reads, Summit.
func Fig5CosmoflowSummit(scale Scale) (*Table, error) { return genSweep("fig5", scale) }

// Fig6EQSIMSummit is Fig. 6: EQSIM/SW4 checkpoints, Summit, strong
// scaling.
func Fig6EQSIMSummit(scale Scale) (*Table, error) { return genSweep("fig6", scale) }

// Fig7NyxOverlapCori is Fig. 7: Nyx on Cori with the number of time
// steps per computation phase swept, comparing application duration
// under both modes plus the model's estimate (Eq. 1).
func Fig7NyxOverlapCori(scale Scale) (*Table, error) {
	stepsSweep := []int{1, 3, 6, 12, 24, 48, 96, 192}
	// A moderate allocation where one plotfile costs a few compute
	// steps — the regime where checkpoint frequency matters (the paper
	// varied exactly this trade-off).
	nodes := 4
	if scale.CoriNodes[len(scale.CoriNodes)-1] < nodes {
		nodes = scale.CoriNodes[len(scale.CoriNodes)-1]
	}
	t := &Table{
		ID:     "fig7",
		Title:  fmt.Sprintf("Nyx application duration vs steps per computation phase, Cori (%d nodes)", nodes),
		XLabel: "steps/phase", YLabel: "seconds",
	}
	// Each steps-per-phase point owns an estimator shared only by its
	// two runs (sync feeds it, then async), so points are independent
	// and run in parallel; the two modes within a point stay sequential.
	type point struct {
		syncDur, asyncDur, syncEst, asyncEst float64
	}
	points := make([]point, len(stepsSweep))
	err := RunParallel(len(stepsSweep), func(si int) error {
		steps := stepsSweep[si]
		est := model.NewEstimator()
		var durs [2]float64
		var reps [2]*core.Report
		for i, mode := range []core.Mode{core.ForceSync, core.ForceAsync} {
			cfg := nyx.SmallConfig()
			cfg.Plotfiles = scale.Steps
			cfg.StepsPerPlot = steps
			cfg.TimePerStep = 30 * time.Millisecond
			cfg.Mode = mode
			cfg.Estimator = est
			rep, err := nyx.Run(newSystem("cori", nodes), cfg)
			if err != nil {
				return fmt.Errorf("fig7 steps=%d %v: %w", steps, mode, err)
			}
			durs[i] = rep.Run.TotalTime().Seconds()
			reps[i] = rep
		}
		pt := point{syncDur: durs[0], asyncDur: durs[1]}
		// Model estimate (Eq. 1 + Eq. 2) from the shared estimator fed
		// by both runs.
		bytes := reps[0].Run.Records[0].Bytes
		if ee, ok := est.EstimateEpoch(bytes, reps[0].Run.Ranks); ok {
			pt.syncEst = model.EstimateApp(
				reps[0].Run.InitTime, reps[0].Run.TermTime, ee.Sync, scale.Steps).Seconds()
			pt.asyncEst = model.EstimateApp(
				reps[1].Run.InitTime, reps[1].Run.TermTime, ee.Async, scale.Steps).Seconds()
		}
		points[si] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}
	var xs, syncY, asyncY, syncEst, asyncEst []float64
	for si, steps := range stepsSweep {
		xs = append(xs, float64(steps))
		syncY = append(syncY, points[si].syncDur)
		asyncY = append(asyncY, points[si].asyncDur)
		syncEst = append(syncEst, points[si].syncEst)
		asyncEst = append(asyncEst, points[si].asyncEst)
	}
	t.Series = []Series{
		{Name: "sync", X: xs, Y: syncY},
		{Name: "async", X: xs, Y: asyncY},
		{Name: "sync est", X: xs, Y: syncEst},
		{Name: "async est", X: xs, Y: asyncEst},
	}
	t.note("fewer steps per phase = more frequent checkpoints; async advantage shrinks as compute becomes too short to overlap")
	return t, nil
}

// Fig8VPICVariability is Fig. 8: VPIC-IO aggregate bandwidth across
// repeated runs on different days with backend contention — synchronous
// rates scatter with the day's contention, asynchronous rates stay
// consistent.
func Fig8VPICVariability(scale Scale) (*Table, error) {
	nodes := scale.SummitNodes[len(scale.SummitNodes)-1]
	t := &Table{
		ID:     "fig8",
		Title:  fmt.Sprintf("VPIC-IO variability across days, Summit (%d nodes)", nodes),
		XLabel: "day", YLabel: "GB/s",
	}
	const seed = 20230601
	// Every (day, mode) run is independent: its own clock, system, and
	// contention factor derived only from (seed, day).
	rates := make([]float64, 2*scale.Days)
	err := RunParallel(len(rates), func(i int) error {
		day := i / 2
		mode := core.ForceSync
		if i%2 == 1 {
			mode = core.ForceAsync
		}
		sys := newSystem("summit", nodes, systems.WithContention(seed, int64(day)))
		rep, _, err := vpicio.Run(sys, vpicio.Config{
			Steps: scale.Steps, ComputeTime: 30 * time.Second, Mode: mode,
		})
		if err != nil {
			return fmt.Errorf("fig8 day %d %v: %w", day, mode, err)
		}
		rates[i] = gb(rep.Run.PeakRate())
		return nil
	})
	if err != nil {
		return nil, err
	}
	var xs, syncY, asyncY []float64
	for day := 0; day < scale.Days; day++ {
		xs = append(xs, float64(day))
		syncY = append(syncY, rates[2*day])
		asyncY = append(asyncY, rates[2*day+1])
	}
	t.Series = []Series{
		{Name: "sync", X: xs, Y: syncY},
		{Name: "async", X: xs, Y: asyncY},
	}
	t.note("sync CV=%.3f, async CV=%.3f (async hides system-level contention)",
		stats.CV(syncY), stats.CV(asyncY))
	return t, nil
}

// Fig1Scenarios reproduces Fig. 1's three timelines from the epoch
// equations: ideal overlap, partial overlap, and the slowdown scenario
// where the transactional overhead exceeds the computation phase.
func Fig1Scenarios(Scale) (*Table, error) {
	type scenario struct {
		name               string
		comp, io, overhead time.Duration
	}
	cases := []scenario{
		{"ideal (comp > io)", 30 * time.Second, 10 * time.Second, 1 * time.Second},
		{"partial (comp < io)", 10 * time.Second, 30 * time.Second, 1 * time.Second},
		{"slowdown (comp <= overhead)", 500 * time.Millisecond, 1 * time.Second, 1500 * time.Millisecond},
	}
	t := &Table{
		ID:     "fig1",
		Title:  "Epoch-time scenarios (Eq. 2a vs Eq. 2b)",
		XLabel: "scenario", YLabel: "seconds",
	}
	var xs, syncY, asyncY []float64
	for i, c := range cases {
		xs = append(xs, float64(i+1))
		syncEpoch := c.io + c.comp
		asyncEpoch := maxDur(c.comp, c.io-c.comp) + c.overhead
		syncY = append(syncY, syncEpoch.Seconds())
		asyncY = append(asyncY, asyncEpoch.Seconds())
		verdict := "async wins"
		if asyncEpoch >= syncEpoch {
			verdict = "sync wins"
		}
		t.note("scenario %d = %s: %s", i+1, c.name, verdict)
	}
	t.Series = []Series{
		{Name: "sync epoch", X: xs, Y: syncY},
		{Name: "async epoch", X: xs, Y: asyncY},
	}
	return t, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// ModelAccuracy reproduces §V-C's accuracy claims: across a VPIC-IO
// scaling sweep the linear fits reach r² ≥ 80% for synchronous I/O and
// ≥ 90% for the asynchronous staging rate.
//
// The sweep stays serial on purpose: every run feeds one shared
// estimator (the Fig. 2 feedback loop accumulates observations run over
// run), so the points are not independent the way the rate-figure
// sweeps are.
func ModelAccuracy(scale Scale) (*Table, error) {
	est := model.NewEstimator(model.WithFitKinds(model.FitLinearLogRanks, model.FitLinearRanks))
	var ranks, syncMeas, asyncMeas []float64
	for _, nodes := range scale.SummitNodes {
		for _, mode := range []core.Mode{core.ForceSync, core.ForceAsync} {
			rep, _, err := vpicio.Run(newSystem("summit", nodes), vpicio.Config{
				Steps: scale.Steps, ComputeTime: 30 * time.Second, Mode: mode,
				Estimator: est,
			})
			if err != nil {
				return nil, err
			}
			if mode == core.ForceSync {
				ranks = append(ranks, float64(rep.Run.Ranks))
				syncMeas = append(syncMeas, gb(rep.Run.PeakRate()))
			} else {
				asyncMeas = append(asyncMeas, gb(rep.Run.PeakRate()))
			}
		}
	}
	t := &Table{
		ID:     "r2",
		Title:  "Model accuracy (§V-C): measured vs fitted aggregate rates, VPIC-IO Summit",
		XLabel: "MPI ranks", YLabel: "GB/s",
	}
	t.Series = append(t.Series,
		Series{Name: "sync", X: ranks, Y: syncMeas},
		Series{Name: "async", X: ranks, Y: asyncMeas},
	)
	sm, okS := est.SyncModel()
	am, okA := est.AsyncModel()
	if okS {
		fitted := make([]float64, len(ranks))
		for i, r := range ranks {
			fitted[i] = gb(sm.EstimateRate(0, int(r)))
		}
		t.Series = append(t.Series, Series{Name: "sync est", X: ranks, Y: fitted})
		t.note("sync %v: r²=%.3f (paper: ≥0.80)", sm.Kind, sm.R2())
	}
	if okA {
		fitted := make([]float64, len(ranks))
		for i, r := range ranks {
			fitted[i] = gb(am.EstimateRate(0, int(r)))
		}
		t.Series = append(t.Series, Series{Name: "async est", X: ranks, Y: fitted})
		t.note("async %v: r²=%.3f (paper: ≥0.90)", am.Kind, am.R2())
	}
	return t, nil
}

// R2Values runs ModelAccuracy's underlying fits and returns (syncR2,
// asyncR2) for programmatic assertions. Serial for the same reason as
// ModelAccuracy: one estimator accumulates across the whole sweep.
func R2Values(scale Scale) (float64, float64, error) {
	est := model.NewEstimator(model.WithFitKinds(model.FitLinearLogRanks, model.FitLinearRanks))
	for _, nodes := range scale.SummitNodes {
		for _, mode := range []core.Mode{core.ForceSync, core.ForceAsync} {
			if _, _, err := vpicio.Run(newSystem("summit", nodes), vpicio.Config{
				Steps: scale.Steps, ComputeTime: 30 * time.Second, Mode: mode,
				Estimator: est,
			}); err != nil {
				return 0, 0, err
			}
		}
	}
	sm, okS := est.SyncModel()
	am, okA := est.AsyncModel()
	if !okS || !okA {
		return 0, 0, fmt.Errorf("experiments: models not fitted")
	}
	return sm.R2(), am.R2(), nil
}

// MicroMemcpy is the §III-B1 memcpy micro-benchmark: single-copy
// bandwidth versus size on both systems' nodes, showing the knee below
// ~32 MB.
func MicroMemcpy(Scale) (*Table, error) {
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 32 << 20, 128 << 20, 512 << 20}
	t := &Table{
		ID:     "micro-mem",
		Title:  "memcpy micro-benchmark: copy bandwidth vs size",
		XLabel: "MB", YLabel: "GB/s",
	}
	summit := newSystem("summit", 1)
	cori := newSystem("cori", 1)
	var xs, sy, cy []float64
	for _, sz := range sizes {
		xs = append(xs, float64(sz)/1e6)
		sy = append(sy, gb(summit.NodeOf(0).MemcpyBandwidth(sz)))
		cy = append(cy, gb(cori.NodeOf(0).MemcpyBandwidth(sz)))
	}
	t.Series = []Series{
		{Name: "summit node", X: xs, Y: sy},
		{Name: "cori node", X: xs, Y: cy},
	}
	t.note("bandwidth is constant above ~32 MB, penalized below (§III-B1)")
	return t, nil
}

// MicroGPUTransfer is the §III-B1 GPU micro-benchmark: effective
// CPU↔GPU bandwidth versus size, pinned vs unpinned host memory.
func MicroGPUTransfer(Scale) (*Table, error) {
	sizes := []int64{64 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30}
	t := &Table{
		ID:     "micro-gpu",
		Title:  "GPU transfer micro-benchmark (Summit NVLink 2.0)",
		XLabel: "MB", YLabel: "GB/s",
	}
	node := newSystem("summit", 1).NodeOf(0)
	var xs, pinned, unpinned []float64
	for _, sz := range sizes {
		xs = append(xs, float64(sz)/1e6)
		pinned = append(pinned, gb(node.GPUBandwidth(sz, true)))
		unpinned = append(unpinned, gb(node.GPUBandwidth(sz, false)))
	}
	t.Series = []Series{
		{Name: "pinned", X: xs, Y: pinned},
		{Name: "unpinned", X: xs, Y: unpinned},
	}
	t.note("pinned transfers amortize DMA setup above ~10 MB and approach the 50 GB/s link peak")
	return t, nil
}

// AblationZeroCopy isolates the transactional overhead: asynchronous
// VPIC-IO with and without the staging copy. Without it the slowdown
// region of Fig. 1c cannot exist.
func AblationZeroCopy(scale Scale) (*Table, error) {
	nodes := scale.SummitNodes
	t := &Table{
		ID:     "abl-zerocopy",
		Title:  "Ablation: transactional copy vs zero-copy async, VPIC-IO Summit",
		XLabel: "MPI ranks", YLabel: "s (I/O phase)",
	}
	type point struct {
		ranks float64
		io    float64
	}
	points := make([]point, 2*len(nodes))
	err := RunParallel(len(points), func(i int) error {
		n := nodes[i/2]
		zero := i%2 == 1
		cfg := vpicio.Config{Steps: scale.Steps, ComputeTime: 30 * time.Second, Mode: core.ForceAsync}
		cfg.Env.ZeroCopy = zero
		rep, _, err := vpicio.Run(newSystem("summit", n), cfg)
		if err != nil {
			return err
		}
		points[i] = point{
			ranks: float64(rep.Run.Ranks),
			io:    rep.Run.Records[len(rep.Run.Records)-1].IOTime.Seconds(),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ranks, withCopy, zeroCopy []float64
	for i := range nodes {
		ranks = append(ranks, points[2*i].ranks)
		withCopy = append(withCopy, points[2*i].io)
		zeroCopy = append(zeroCopy, points[2*i+1].io)
	}
	t.Series = []Series{
		{Name: "with copy", X: ranks, Y: withCopy},
		{Name: "zero-copy", X: ranks, Y: zeroCopy},
	}
	t.note("zero-copy async has no blocking I/O phase at all; the copy is the entire visible async cost")
	return t, nil
}

// AblationFitKinds compares linear and linear-log fits on saturating
// synchronous data, justifying the paper's linear-log choice.
func AblationFitKinds(scale Scale) (*Table, error) {
	ranks := make([]float64, len(scale.SummitNodes))
	rates := make([]float64, len(scale.SummitNodes))
	err := RunParallel(len(scale.SummitNodes), func(i int) error {
		rep, _, err := vpicio.Run(newSystem("summit", scale.SummitNodes[i]), vpicio.Config{
			Steps: scale.Steps, ComputeTime: 30 * time.Second, Mode: core.ForceSync,
		})
		if err != nil {
			return err
		}
		ranks[i] = float64(rep.Run.Ranks)
		rates[i] = gb(rep.Run.PeakRate())
		return nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "abl-fit",
		Title:  "Ablation: linear vs linear-log regression on saturating sync rates",
		XLabel: "MPI ranks", YLabel: "GB/s",
	}
	t.Series = append(t.Series, Series{Name: "measured", X: ranks, Y: rates})
	if lin, err := stats.Linear(ranks, rates); err == nil {
		y := make([]float64, len(ranks))
		for i, r := range ranks {
			y[i] = lin.EvalLinear(r)
		}
		t.Series = append(t.Series, Series{Name: "linear fit", X: ranks, Y: y})
		t.note("linear r²=%.3f", lin.R2)
	}
	if ll, err := stats.LinearLog(ranks, rates); err == nil {
		y := make([]float64, len(ranks))
		for i, r := range ranks {
			y[i] = ll.EvalLinearLog(r)
		}
		t.Series = append(t.Series, Series{Name: "linear-log fit", X: ranks, Y: y})
		t.note("linear-log r²=%.3f", ll.R2)
	}
	return t, nil
}

// AblationBurstBuffer compares synchronous VPIC-IO on Cori's Lustre
// scratch against its DataWarp burst buffer — the faster shared tier
// the related work (DataElevator, MLBS) stages through (§II-C).
func AblationBurstBuffer(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "abl-bb",
		Title:  "Extension: Lustre scratch vs burst buffer, sync VPIC-IO on Cori",
		XLabel: "MPI ranks", YLabel: "GB/s",
	}
	type point struct {
		ranks, rate float64
	}
	points := make([]point, 2*len(scale.CoriNodes))
	err := RunParallel(len(points), func(i int) error {
		n := scale.CoriNodes[i/2]
		bb := i%2 == 1
		sys := newSystem("cori", n)
		cfg := vpicio.Config{Steps: scale.Steps, ComputeTime: 30 * time.Second, Mode: core.ForceSync}
		if bb {
			cfg.Target = sys.BurstBuffer
		}
		rep, _, err := vpicio.Run(sys, cfg)
		if err != nil {
			return err
		}
		points[i] = point{ranks: float64(rep.Run.Ranks), rate: gb(rep.Run.PeakRate())}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ranks, lustreY, bbY []float64
	for i := range scale.CoriNodes {
		ranks = append(ranks, points[2*i].ranks)
		lustreY = append(lustreY, points[2*i].rate)
		bbY = append(bbY, points[2*i+1].rate)
	}
	t.Series = []Series{
		{Name: "lustre", X: ranks, Y: lustreY},
		{Name: "burst buffer", X: ranks, Y: bbY},
	}
	t.note("the burst buffer lifts synchronous rates but still cannot match async staging to node-local memory")
	return t, nil
}

// AblationStaging compares staging locations for the transactional copy:
// DRAM, node-local SSD, and GPU-sourced (pinned) staging on Summit.
func AblationStaging(scale Scale) (*Table, error) {
	nodes := scale.SummitNodes
	t := &Table{
		ID:     "abl-staging",
		Title:  "Ablation: staging location for async writes, EQSIM Summit",
		XLabel: "MPI ranks", YLabel: "GB/s",
	}
	kinds := []struct {
		name string
		mod  func(*eqsim.Config)
	}{
		{"dram", func(*eqsim.Config) {}},
		{"ssd", func(c *eqsim.Config) { c.Env.SSD = true }},
		{"gpu+dram", func(c *eqsim.Config) { c.Env.GPU = true; c.Env.Pinned = true }},
	}
	type point struct {
		ranks, rate float64
	}
	points := make([]point, len(nodes)*len(kinds))
	err := RunParallel(len(points), func(i int) error {
		n := nodes[i/len(kinds)]
		k := kinds[i%len(kinds)]
		cfg := eqsim.Config{Checkpoints: scale.Steps, Mode: core.ForceAsync}
		k.mod(&cfg)
		rep, err := eqsim.Run(newSystem("summit", n), cfg)
		if err != nil {
			return err
		}
		points[i] = point{ranks: float64(rep.Run.Ranks), rate: gb(rep.Run.PeakRate())}
		return nil
	})
	if err != nil {
		return nil, err
	}
	xs := make([]float64, len(nodes))
	ys := make([][]float64, len(kinds))
	for ni := range nodes {
		for ki := range kinds {
			p := points[ni*len(kinds)+ki]
			xs[ni] = p.ranks
			ys[ki] = append(ys[ki], p.rate)
		}
	}
	for ki, k := range kinds {
		t.Series = append(t.Series, Series{Name: k.name, X: xs, Y: ys[ki]})
	}
	t.note("DRAM staging is fastest; SSD staging trades speed for not consuming memory (§VI-A)")
	return t, nil
}
