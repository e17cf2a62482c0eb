// Package core is the library's primary contribution glue: an iterative
// application driver that executes alternating computation and I/O
// phases over simulated MPI, measures every phase, feeds the paper's
// performance model (internal/model), and — in Adaptive mode — uses the
// model's epoch estimates to pick synchronous or asynchronous I/O for
// each upcoming epoch: the transparent, adaptive asynchronous I/O
// interface the paper motivates (§II-B) and the feedback loop of its
// Fig. 2.
//
// Workloads supply Hooks (connector setup, a compute phase, an I/O
// phase, drain and teardown); the Loop owns phase timing, barriers,
// mode decisions, and the per-epoch record stream.
package core

import (
	"fmt"
	"sync"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/faults"
	"asyncio/internal/metrics"
	"asyncio/internal/model"
	"asyncio/internal/mpi"
	"asyncio/internal/systems"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
)

// Mode selects the I/O strategy policy for a run.
type Mode int

// Run policies.
const (
	// ForceSync runs every epoch synchronously.
	ForceSync Mode = iota
	// ForceAsync runs every epoch asynchronously.
	ForceAsync
	// Adaptive seeds the model with a few epochs of each mode, then
	// picks the mode with the smaller estimated epoch time (Fig. 2).
	Adaptive
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ForceSync:
		return "sync"
	case ForceAsync:
		return "async"
	case Adaptive:
		return "adaptive"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Config parameterizes a run.
type Config struct {
	Workload   string
	Iterations int
	Mode       Mode
	// Ranks defaults to the full allocation (system Size()).
	Ranks int
	// SeedEpochs is how many epochs of each mode Adaptive runs before
	// trusting the model. Default 2.
	SeedEpochs int
	// Estimator, when non-nil, carries history across runs (the paper
	// progressively adds measurements from previous runs). A fresh one
	// is created otherwise.
	Estimator *model.Estimator
	// Degrade enables graceful degradation. The zero value inherits the
	// policy from the system's fault injector (none when no faults).
	Degrade DegradePolicy
}

// DegradePolicy is the graceful-degradation state machine's
// configuration: rank 0 watches the run's health at each epoch boundary
// and demotes async→sync for subsequent epochs when it looks unhealthy,
// re-promoting after a clean streak. Health signals (any non-zero
// subset):
//
//   - the asyncvol drain-queue depth exceeds QueueWatermark — the
//     background streams are falling behind and staging memory grows
//     without bound;
//   - the faults retry-exhaustion counter advanced this epoch — an op
//     just failed for good;
//   - an async epoch's measured I/O time exceeded OverheadSpike × the
//     model's t_overhead estimate — the "async" path has stopped hiding
//     anything.
//
// The checks read the shared metrics registry on rank 0 only, so an
// enabled policy adds no collectives and a disabled one adds no work at
// all.
type DegradePolicy struct {
	Enabled        bool
	QueueWatermark float64 // 0 disables the queue-depth signal
	OverheadSpike  float64 // 0 disables the spike signal
	HealthyEpochs  int     // clean epochs before re-promotion; default 2
}

// ModeSwitch records one degradation decision.
type ModeSwitch struct {
	// Epoch is the first epoch the new policy applies to.
	Epoch int
	To    trace.Mode
	At    time.Duration
	// Reason is the health signal that tripped ("queue depth 12 > 4").
	Reason string
}

// RankCtx is the per-rank execution context passed to every hook.
type RankCtx struct {
	Comm *mpi.Comm
	P    *vclock.Proc
	Sys  *systems.System
	Rank int
	// Span is the rank's root trace span for the run. Hooks may hang
	// their own children off it.
	Span *trace.Span
	// IOSpan is the span for the current I/O phase, reset by the loop
	// before each IO hook. Workloads thread it into vol.Props so every
	// request the phase issues — including work completing later on a
	// background stream — records its transfer events here.
	IOSpan *trace.Span

	crashes *crashTable
}

// OnCrash registers fn to run when an injected crash kills this rank
// (after the rank's process dies). Workloads use it to take the rank's
// background machinery down with it — e.g. asyncvol.Connector.Kill, so
// queued asynchronous writes die un-issued exactly as they would on a
// real node loss. No-op when the run has no crash schedule.
func (ctx *RankCtx) OnCrash(fn func(reason error)) {
	if ctx.crashes == nil {
		return
	}
	ctx.crashes.register(ctx.Rank, fn)
}

// crashTable holds per-rank crash cleanup hooks; allocated only when
// the fault schedule contains crash events.
type crashTable struct {
	mu    sync.Mutex
	hooks [][]func(error)
}

func (ct *crashTable) register(rank int, fn func(error)) {
	ct.mu.Lock()
	ct.hooks[rank] = append(ct.hooks[rank], fn)
	ct.mu.Unlock()
}

// take removes and returns rank's hooks, so each runs at most once.
func (ct *crashTable) take(rank int) []func(error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	h := ct.hooks[rank]
	ct.hooks[rank] = nil
	return h
}

// Hooks are the workload-specific callbacks. All hooks run on every
// rank. IO returns the bytes this rank moved during the phase.
type Hooks struct {
	// Init performs per-rank setup (connectors, file create/open).
	Init func(ctx *RankCtx) error
	// Compute runs one computation phase (typically a virtual sleep).
	Compute func(ctx *RankCtx, iter int) error
	// IO runs one I/O phase in the given mode and returns this rank's
	// bytes. For async mode it should return once staging completes.
	IO func(ctx *RankCtx, iter int, mode trace.Mode) (int64, error)
	// Drain waits for outstanding asynchronous work (nil to skip).
	Drain func(ctx *RankCtx) error
	// Term closes files and shuts connectors down (nil to skip).
	Term func(ctx *RankCtx) error
	// Observe, when non-nil, runs on rank 0 right after each epoch's
	// record is committed, with the epoch's measurements. Experiments
	// use it to assert on mid-run metrics (ctx.Sys.Metrics) while the
	// simulation is still at that virtual instant.
	Observe func(ctx *RankCtx, iter int, rec trace.Record)
}

// EpochReport pairs an epoch's measurements with the model's prediction
// made before the epoch ran.
type EpochReport struct {
	trace.Record
	Est   model.EpochEstimate
	EstOK bool
}

// Report is the outcome of a run.
type Report struct {
	Run       trace.RunResult
	Epochs    []EpochReport
	Estimator *model.Estimator
	// Spans holds each rank's root trace span, indexed by rank.
	Spans []*trace.Span
	// Metrics is the system registry the run recorded into.
	Metrics *metrics.Registry
	// CritPath is the run's causal critical-path profile (nil when the
	// system was built without WithCritPath).
	CritPath *critpath.Profile
	// ModeSwitches lists graceful-degradation demotions/promotions in
	// order (empty when the policy is off or never tripped).
	ModeSwitches []ModeSwitch
	// Crashes lists injected crash events that fired during the run, in
	// firing order.
	Crashes []CrashRecord
	// Aborted is true when the run ended early (injected crash or hook
	// failure). The report then holds every epoch committed before the
	// abort — partial observability instead of none.
	Aborted bool
	// Err is the abort cause when Aborted (the same error Run returns).
	Err string
}

// CrashRecord notes one injected crash that fired.
type CrashRecord struct {
	// Node is the crashed node index, or -1 for a single-rank crash.
	Node int
	// Ranks lists the killed ranks in ascending order.
	Ranks []int
	At    time.Duration
	Err   string
}

// runObserver, when set, receives every completed Report. Command-line
// tools that cannot reach into experiment internals (cmd/asyncio-bench
// constructs systems deep inside sweep helpers) register one to collect
// per-run observability data. Runs execute sequentially per process.
var (
	runObserverMu sync.Mutex
	runObserver   func(*Report)
)

// SetRunObserver installs fn (nil to clear), returning the previous
// observer.
func SetRunObserver(fn func(*Report)) func(*Report) {
	runObserverMu.Lock()
	defer runObserverMu.Unlock()
	prev := runObserver
	runObserver = fn
	return prev
}

// Run executes the iterative application on sys. It spawns cfg.Ranks MPI
// rank processes on the system's clock, drives Iterations epochs, and
// returns after all ranks finish. It must be called from the host
// goroutine (it waits on the clock).
func Run(sys *systems.System, cfg Config, hooks Hooks) (*Report, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("core: Iterations %d must be positive", cfg.Iterations)
	}
	if hooks.IO == nil {
		return nil, fmt.Errorf("core: Hooks.IO is required")
	}
	ranks := cfg.Ranks
	if ranks == 0 {
		ranks = sys.Size()
	}
	if ranks <= 0 || ranks > sys.Size() {
		return nil, fmt.Errorf("core: Ranks %d outside 1..%d", ranks, sys.Size())
	}
	if cfg.SeedEpochs <= 0 {
		cfg.SeedEpochs = 2
	}
	est := cfg.Estimator
	if est == nil {
		est = model.NewEstimator()
	}
	if !cfg.Degrade.Enabled && sys.Faults != nil {
		cfg.Degrade = degradeFromInjector(sys.Faults)
	}
	if cfg.Degrade.HealthyEpochs <= 0 {
		cfg.Degrade.HealthyEpochs = 2
	}
	ctl := &controller{mode: cfg.Mode, seed: cfg.SeedEpochs, est: est, degrade: cfg.Degrade}
	if cfg.Degrade.Enabled && sys.Metrics != nil {
		// Pay-for-use: the degradation series exist only when the policy
		// does, so fault-free runs export byte-identical metrics.
		ctl.mDegraded = sys.Metrics.Gauge("core.degraded")
		ctl.mModeAsync = sys.Metrics.Gauge("core.mode_async")
		ctl.mDemotions = sys.Metrics.Counter("core.demotions")
		ctl.mPromotions = sys.Metrics.Counter("core.promotions")
	}
	rep := &Report{
		Run: trace.RunResult{
			System:   sys.Name,
			Workload: cfg.Workload,
			Mode:     runModeLabel(cfg.Mode),
			Ranks:    ranks,
			Nodes:    (ranks + sys.RanksPerNode - 1) / sys.RanksPerNode,
		},
		Estimator: est,
		Spans:     make([]*trace.Span, ranks),
		Metrics:   sys.Metrics,
	}
	var crashes []faults.Crash
	if sys.Faults != nil {
		crashes = sys.Faults.Crashes()
	}
	var ct *crashTable
	if len(crashes) > 0 {
		ct = &crashTable{hooks: make([][]func(error), ranks)}
	}
	costs := mpi.DefaultCosts()
	costs.Metrics = sys.Metrics
	costs.Crit = sys.Crit
	world := mpi.Run(sys.Clk, ranks, costs, func(c *mpi.Comm) {
		runRank(c, sys, cfg, hooks, ctl, rep, ct)
	})
	timers := scheduleCrashes(sys, crashes, ranks, world, ct, rep)
	werr := sys.Clk.Wait()
	for _, t := range timers {
		t.Stop()
	}
	// A hook error aborts the ranks mid-run, which can leave background
	// streams idle and trip the clock's deadlock detector; the root
	// cause is the workload error, so report it first.
	err := world.Err()
	if err == nil {
		err = werr
	}
	if sys.Crit != nil {
		// The profile label is a pure function of the run configuration,
		// never of the execution (worker count), so the exported profile
		// bytes stay comparable across runs.
		sys.Crit.SetMakespan(sys.Clk.Now())
		rep.CritPath = sys.Crit.Profile(fmt.Sprintf("%s/%s/%s ranks=%d",
			sys.Name, cfg.Workload, rep.Run.Mode, ranks))
	}
	if err != nil {
		// Flush what the run measured before it died: the epochs already
		// committed, every rank's spans so far, the metrics registry, and
		// the crash records. Observers (trace export, metric dumps) see
		// the partial report; callers still get the error.
		rep.Aborted = true
		rep.Err = err.Error()
	}
	runObserverMu.Lock()
	obs := runObserver
	runObserverMu.Unlock()
	if obs != nil {
		obs(rep)
	}
	if err != nil {
		return rep, err
	}
	return rep, nil
}

// scheduleCrashes arms one virtual-clock timer per crash event. A node
// crash kills every rank the node hosts (rank/RanksPerNode == node); a
// crash aimed at a rank or node outside the run, or firing after all
// ranks finished, is a no-op. Each victim's process is killed first, the
// world is aborted at the crash instant (survivors observe a revoked
// communicator), and then the victims' registered crash hooks take the
// per-rank background machinery down.
func scheduleCrashes(sys *systems.System, crashes []faults.Crash, ranks int,
	world *mpi.World, ct *crashTable, rep *Report) []*vclock.Timer {
	if len(crashes) == 0 {
		return nil
	}
	// Pay-for-use: the series exists only on runs with a crash schedule.
	var mCrashes *metrics.Counter
	if sys.Metrics != nil {
		mCrashes = sys.Metrics.Counter("core.crashes")
	}
	var mu sync.Mutex // serializes same-instant crash callbacks on rep
	timers := make([]*vclock.Timer, 0, len(crashes))
	for _, cr := range crashes {
		cr := cr
		delay := cr.At - sys.Clk.Now()
		timers = append(timers, sys.Clk.AfterFunc(delay, func(now time.Duration) {
			if world.Finished() {
				return
			}
			node := -1
			var victims []int
			if cr.Node {
				node = cr.Index
				for r := 0; r < ranks; r++ {
					if r/sys.RanksPerNode == cr.Index {
						victims = append(victims, r)
					}
				}
			} else if cr.Index < ranks {
				victims = []int{cr.Index}
			}
			if len(victims) == 0 {
				return
			}
			ferr := cr.CrashError()
			for _, r := range victims {
				world.Kill(r, ferr)
				if sp := rep.Spans[r]; sp != nil {
					sp.EventOn("core:crash("+ferr.Target+")", 0, now, fmt.Sprintf("rank%d", r))
				}
				if ct != nil {
					for _, fn := range ct.take(r) {
						fn(ferr)
					}
				}
			}
			mCrashes.Add(1)
			mu.Lock()
			rep.Crashes = append(rep.Crashes, CrashRecord{
				Node: node, Ranks: victims, At: now, Err: ferr.Error(),
			})
			mu.Unlock()
		}))
	}
	return timers
}

func runModeLabel(m Mode) trace.Mode {
	if m == ForceAsync {
		return trace.Async
	}
	return trace.Sync
}

// degradeFromInjector maps a fault injector's degradation spec onto the
// core policy.
func degradeFromInjector(in *faults.Injector) DegradePolicy {
	d := in.Degrade()
	return DegradePolicy{
		Enabled:        d.Enabled,
		QueueWatermark: d.QueueWatermark,
		OverheadSpike:  d.OverheadSpike,
		HealthyEpochs:  d.HealthyEpochs,
	}
}

// controller makes per-epoch mode decisions on rank 0.
type controller struct {
	mode Mode
	seed int
	est  *model.Estimator

	// Degradation state (rank 0 only; no locking needed).
	degrade       DegradePolicy
	degraded      bool
	healthy       int
	lastExhausted int64

	mDegraded   *metrics.Gauge
	mModeAsync  *metrics.Gauge
	mDemotions  *metrics.Counter
	mPromotions *metrics.Counter
}

// choose returns the mode for the given epoch plus the estimate used.
// While degraded, async decisions are demoted to sync.
func (ctl *controller) choose(epoch int, bytes int64, ranks int) (trace.Mode, model.EpochEstimate, bool) {
	mode, est, ok := ctl.chooseRaw(epoch, bytes, ranks)
	if ctl.degraded && mode == trace.Async {
		mode = trace.Sync
	}
	return mode, est, ok
}

func (ctl *controller) chooseRaw(epoch int, bytes int64, ranks int) (trace.Mode, model.EpochEstimate, bool) {
	switch ctl.mode {
	case ForceSync, ForceAsync:
		// Forced runs still compute estimates (when possible) so
		// reports can compare prediction against measurement.
		est, ok := ctl.est.EstimateEpoch(bytes, ranks)
		if ctl.mode == ForceAsync {
			return trace.Async, est, ok
		}
		return trace.Sync, est, ok
	}
	// Adaptive: alternate sync/async for the seed epochs, and keep
	// alternating while the model still lacks data for either mode.
	alternate := func() (trace.Mode, model.EpochEstimate, bool) {
		if epoch%2 == 0 {
			return trace.Sync, model.EpochEstimate{}, false
		}
		return trace.Async, model.EpochEstimate{}, false
	}
	if epoch < 2*ctl.seed {
		return alternate()
	}
	est, ok := ctl.est.EstimateEpoch(bytes, ranks)
	if !ok {
		return alternate()
	}
	return est.Better(), est, true
}

func runRank(c *mpi.Comm, sys *systems.System, cfg Config, hooks Hooks, ctl *controller, rep *Report, ct *crashTable) {
	p := c.Proc()
	ctx := &RankCtx{
		Comm: c, P: p, Sys: sys, Rank: c.Rank(),
		Span:    trace.NewSpan(fmt.Sprintf("rank%d", c.Rank())),
		crashes: ct,
	}
	// Distinct indices per rank, so no lock is needed.
	rep.Spans[c.Rank()] = ctx.Span
	fail := func(err error) { c.Abort(err) }

	initStart := p.Now()
	if hooks.Init != nil {
		if err := hooks.Init(ctx); err != nil {
			fail(fmt.Errorf("init: %w", err))
			return
		}
	}
	c.Barrier()
	initTime := p.Now() - initStart
	if c.Rank() == 0 {
		sys.Crit.MarkInit(p.Now())
	}

	var lastBytes int64 = -1
	for iter := 0; iter < cfg.Iterations; iter++ {
		// Rank 0 decides the epoch's mode from the model; everyone else
		// follows. The expected I/O size of the next epoch is the
		// previous epoch's — iterative applications write the same
		// shape every checkpoint.
		var mode trace.Mode
		var est model.EpochEstimate
		var estOK bool
		if c.Rank() == 0 {
			mode, est, estOK = ctl.choose(iter, lastBytes, c.Size())
		}
		mode = mpi.Bcast(c, mode, 0)

		// Computation phase.
		compStart := p.Now()
		if hooks.Compute != nil {
			if err := hooks.Compute(ctx, iter); err != nil {
				fail(fmt.Errorf("compute iter %d: %w", iter, err))
				return
			}
		}
		compTime := p.Now() - compStart
		sys.Crit.Record(critpath.Edge{
			Track: p.Name(), Cause: critpath.Compute, Subsystem: "core",
			Detail: "compute", Start: compStart, End: p.Now(),
		})

		// I/O phase, bracketed by barriers so rank 0's elapsed time is
		// the max across ranks — parallel I/O finishes when the slowest
		// rank finishes (§III-B2).
		c.Barrier()
		ctx.IOSpan = ctx.Span.Child(fmt.Sprintf("epoch%d:io", iter))
		ioStart := p.Now()
		myBytes, err := hooks.IO(ctx, iter, mode)
		if err != nil {
			fail(fmt.Errorf("io iter %d: %w", iter, err))
			return
		}
		c.Barrier()
		ioTime := p.Now() - ioStart
		totalBytes := mpi.Allreduce(c, myBytes, func(a, b int64) int64 { return a + b })
		maxComp := mpi.Allreduce(c, compTime, func(a, b time.Duration) time.Duration {
			if a > b {
				return a
			}
			return b
		})
		lastBytes = totalBytes

		if c.Rank() == 0 {
			rec := recordEpoch(ctl, rep, iter, mode, c.Size(), totalBytes, ioTime, maxComp, est, estOK)
			sys.Crit.MarkEpoch(iter, p.Now())
			ctl.checkHealth(ctx, iter, rec, est, estOK, rep)
			if hooks.Observe != nil {
				hooks.Observe(ctx, iter, rec)
			}
		}
	}

	// Termination: drain background I/O, tear down.
	termStart := p.Now()
	if hooks.Drain != nil {
		if err := hooks.Drain(ctx); err != nil {
			fail(fmt.Errorf("drain: %w", err))
			return
		}
	}
	c.Barrier()
	if hooks.Term != nil {
		if err := hooks.Term(ctx); err != nil {
			fail(fmt.Errorf("term: %w", err))
			return
		}
	}
	c.Barrier()
	termTime := p.Now() - termStart
	if c.Rank() == 0 {
		rep.Run.InitTime = initTime
		rep.Run.TermTime = termTime
	}
}

// checkHealth runs the degradation state machine on rank 0 after each
// epoch's record commits. It reads the shared metrics registry at the
// epoch-boundary virtual instant (all ranks are between the post-IO
// collectives and the next epoch's Bcast, so the values are
// deterministic) and flips the controller between healthy and degraded.
// Every switch is recorded on the report, the metrics series, and the
// rank-0 span (a Perfetto instant).
func (ctl *controller) checkHealth(ctx *RankCtx, iter int, rec trace.Record,
	est model.EpochEstimate, estOK bool, rep *Report) {
	if !ctl.degrade.Enabled {
		return
	}
	now := ctx.P.Now()
	ctl.mModeAsync.Set(boolGauge(rec.Mode == trace.Async))
	unhealthy := false
	reason := ""
	if w := ctl.degrade.QueueWatermark; w > 0 && ctx.Sys.Metrics != nil {
		if g := ctx.Sys.Metrics.FindGauge("asyncvol.queue_depth"); g != nil {
			if v := g.Value(); v > w {
				unhealthy = true
				reason = fmt.Sprintf("queue depth %.0f > watermark %.0f", v, w)
			}
		}
	}
	if !unhealthy && ctx.Sys.Metrics != nil {
		if c := ctx.Sys.Metrics.FindCounter(faults.MetricRetryExhausted); c != nil {
			if v := c.Value(); v > ctl.lastExhausted {
				unhealthy = true
				reason = fmt.Sprintf("%d ops exhausted retries", v-ctl.lastExhausted)
				ctl.lastExhausted = v
			}
		}
	}
	if s := ctl.degrade.OverheadSpike; !unhealthy && s > 0 && estOK &&
		rec.Mode == trace.Async && est.Overhead > 0 &&
		rec.IOTime > time.Duration(s*float64(est.Overhead)) {
		unhealthy = true
		reason = fmt.Sprintf("async io %s > %gx overhead estimate %s", rec.IOTime, s, est.Overhead)
	}
	switch {
	case !ctl.degraded && unhealthy:
		ctl.degraded = true
		ctl.healthy = 0
		ctl.mDegraded.Set(1)
		ctl.mDemotions.Add(1)
		ctx.Span.EventOn("core:demote("+reason+")", 0, now, ctx.P.Name())
		rep.ModeSwitches = append(rep.ModeSwitches, ModeSwitch{
			Epoch: iter + 1, To: trace.Sync, At: now, Reason: reason,
		})
	case ctl.degraded && unhealthy:
		ctl.healthy = 0
	case ctl.degraded && !unhealthy:
		ctl.healthy++
		if ctl.healthy >= ctl.degrade.HealthyEpochs {
			ctl.degraded = false
			ctl.healthy = 0
			ctl.mDegraded.Set(0)
			ctl.mPromotions.Add(1)
			reason = fmt.Sprintf("%d healthy epochs", ctl.degrade.HealthyEpochs)
			ctx.Span.EventOn("core:promote("+reason+")", 0, now, ctx.P.Name())
			rep.ModeSwitches = append(rep.ModeSwitches, ModeSwitch{
				Epoch: iter + 1, To: trace.Async, At: now, Reason: reason,
			})
		}
	}
}

// boolGauge maps a bool onto a 0/1 gauge value.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// recordEpoch runs on rank 0 only and returns the committed record.
func recordEpoch(ctl *controller, rep *Report, iter int, mode trace.Mode, ranks int,
	bytes int64, ioTime, compTime time.Duration, est model.EpochEstimate, estOK bool) trace.Record {
	rec := trace.Record{
		Epoch:    iter,
		Mode:     mode,
		Ranks:    ranks,
		Bytes:    bytes,
		IOTime:   ioTime,
		CompTime: compTime,
	}
	// Feed the feedback loop (Fig. 2): measurements from this epoch
	// improve estimates for the next.
	ctl.est.ObserveComp(compTime)
	if mode == trace.Sync {
		ctl.est.ObserveSyncIO(bytes, ranks, ioTime)
	} else {
		ctl.est.ObserveOverhead(bytes, ranks, ioTime)
	}
	rep.Run.Records = append(rep.Run.Records, rec)
	rep.Epochs = append(rep.Epochs, EpochReport{Record: rec, Est: est, EstOK: estOK})
	return rec
}
