// Package pfs models parallel file systems as timing drivers for the
// hdf5 library: GPFS (Summit's Alpine — workload-reactive allocation, no
// user-visible striping) and Lustre (Cori's scratch — OSTs with
// user-controlled stripe settings), plus an SSD burst buffer.
//
// A Target is a processor-sharing bandwidth server with three additional
// effects the paper's evaluation hinges on:
//
//   - a per-flow rate cap (the client/injection bandwidth), which makes
//     aggregate bandwidth grow with rank count until the backend
//     saturates (the weak-scaling knee in Fig. 3);
//   - a per-request efficiency that decays for small requests, which
//     makes aggregate synchronous bandwidth *fall* as strong scaling
//     shrinks each rank's share (Figs. 4 and 6);
//   - a run-level contention factor, deterministic per (seed, day),
//     reproducing the cross-day variability of Fig. 8. Contention
//     degrades the whole shared path (fabric and storage) but never the
//     node-local staging asynchronous I/O buffers through, which is
//     exactly why the paper finds async bandwidth stable across days.
package pfs

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"asyncio/internal/critpath"
	"asyncio/internal/flow"
	"asyncio/internal/metrics"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
)

// TargetConfig describes one storage target.
type TargetConfig struct {
	Name string
	// BackendPeak is the aggregate backend bandwidth in bytes/s.
	BackendPeak float64
	// PerFlowBW caps each flow (one rank's request) in bytes/s.
	PerFlowBW float64
	// ReqRamp sets the small-request efficiency knee: a request of b
	// bytes runs at efficiency b/(b+ReqRamp). Zero disables the penalty.
	ReqRamp int64
	// MetaLatency is charged per metadata operation.
	MetaLatency time.Duration
	// OpLatency is charged per data request before the transfer.
	OpLatency time.Duration
}

// Target is a storage tier. It implements hdf5.Driver (and the
// span-aware hdf5.SpanDriver), so a file created with
// hdf5.WithDriver(target) charges all its I/O here.
type Target struct {
	cfg        TargetConfig
	srv        *flow.Server
	contention atomic.Uint64 // float64 bits; capacity multiplier in (0,1]
	fault      atomic.Uint64 // float64 bits; fault-injection slowdown in (0,1]
	hook       FaultHook     // set once before the run; nil when no faults

	// Dispatch counters: one data op = one charged request against the
	// backend (the unit the small-request penalty applies to).
	writeOps, readOps, metaOps atomic.Int64
	bytesWritten, bytesRead    atomic.Int64

	// Registry instruments, nil until Instrument is called (all methods
	// no-op on nil).
	mInflight, mContention      *metrics.Gauge
	mWriteOps, mReadOps         *metrics.Counter
	mMetaOps                    *metrics.Counter
	mBytesWritten, mBytesRead   *metrics.Counter
	mPenaltyHits, mPenaltyBytes *metrics.Counter

	// crit, when non-nil, records every charged transfer and metadata
	// operation as a causal edge (set once before the run).
	crit *critpath.Recorder

	// Span and edge details, built once so the per-op hot path does not
	// allocate them when no recorder or span is attached.
	writeDetail, readDetail, metaDetail string
}

// SetCrit attaches the critical-path recorder. Call once, before the
// run starts.
func (t *Target) SetCrit(rec *critpath.Recorder) {
	if t == nil {
		return
	}
	t.crit = rec
}

// Stats is a snapshot of a target's charged traffic. Untimed operations
// (nil proc, zero bytes) are not counted — the counters measure what
// the file system actually served, so experiments can assert e.g. how
// many dispatches an aggregation stage saved.
type Stats struct {
	WriteOps, ReadOps, MetaOps int64
	BytesWritten, BytesRead    int64
}

// Stats returns the target's dispatch counters.
func (t *Target) Stats() Stats {
	return Stats{
		WriteOps:     t.writeOps.Load(),
		ReadOps:      t.readOps.Load(),
		MetaOps:      t.metaOps.Load(),
		BytesWritten: t.bytesWritten.Load(),
		BytesRead:    t.bytesRead.Load(),
	}
}

// FaultHook intercepts charged operations on a target. Implemented by
// internal/faults; pfs only defines the seam so it stays import-free of
// the injector.
type FaultHook interface {
	// BeforeData runs before a charged data request is admitted. A
	// non-nil error fails the operation without charging the backend
	// (the client saw EIO before any bytes moved). The hook may sleep p
	// to model a stall instead.
	BeforeData(p *vclock.Proc, target string, write bool, nbytes int64) error
	// BeforeMeta runs before a metadata operation; stalls are injected
	// by sleeping p.
	BeforeMeta(p *vclock.Proc, target string)
}

// NewTarget builds a target on clk.
func NewTarget(clk *vclock.Clock, cfg TargetConfig) *Target {
	if cfg.BackendPeak <= 0 {
		panic(fmt.Sprintf("pfs: BackendPeak %v must be positive", cfg.BackendPeak))
	}
	t := &Target{
		cfg:         cfg,
		writeDetail: "pfs:" + cfg.Name + ":write",
		readDetail:  "pfs:" + cfg.Name + ":read",
		metaDetail:  "meta:" + cfg.Name,
	}
	t.contention.Store(math.Float64bits(1))
	t.fault.Store(math.Float64bits(1))
	t.srv = flow.NewServer(clk, t.capacityFor)
	return t
}

// capacityFor is the processor-sharing capacity for n concurrent flows:
// smooth saturation toward the backend peak (measured parallel-file-
// system curves bend gradually rather than hitting a hard knee, which
// is also why the paper's linear-log fits work), degraded by the run's
// contention factor (shared fabric + storage affect the whole path).
func (t *Target) capacityFor(n int) float64 {
	c := softmin(float64(n)*t.cfg.PerFlowBW, t.cfg.BackendPeak)
	if t.cfg.PerFlowBW <= 0 {
		c = t.cfg.BackendPeak
	}
	return c * t.ContentionFactor() * t.FaultFactor()
}

// Instrument registers the target's activity on m under
// "pfs.<name>.*": the in-flight flow count, the effective bandwidth
// and utilization it implies (maintained as the in-flight gauge
// changes), contention, dispatch/byte counters mirroring Stats, and
// the small-request penalty (requests inflated by the efficiency ramp,
// and the extra backend bytes they cost). Call once, before the run
// starts.
func (t *Target) Instrument(m *metrics.Registry) {
	if t == nil || m == nil {
		return
	}
	pre := "pfs." + t.cfg.Name + "."
	m.Gauge(pre + "peak_bw_bytes_per_sec").Set(t.cfg.BackendPeak)
	t.mContention = m.Gauge(pre + "contention_factor")
	t.mContention.Set(t.ContentionFactor())
	eff := m.Gauge(pre + "effective_bw_bytes_per_sec")
	util := m.Gauge(pre + "utilization")
	t.mInflight = m.Gauge(pre + "inflight")
	// The effective-bandwidth and utilization series are derived from
	// the in-flight count inside its update lock, so the derivation is
	// deterministic even when concurrent flows start at one instant.
	t.mInflight.OnChange(func(_ time.Duration, v float64) {
		var bw float64
		if v > 0 {
			bw = t.capacityFor(int(v))
		}
		eff.Set(bw)
		util.Set(bw / t.cfg.BackendPeak)
	})
	t.mWriteOps = m.Counter(pre + "write_ops")
	t.mReadOps = m.Counter(pre + "read_ops")
	t.mMetaOps = m.Counter(pre + "meta_ops")
	t.mBytesWritten = m.Counter(pre + "bytes_written")
	t.mBytesRead = m.Counter(pre + "bytes_read")
	t.mPenaltyHits = m.Counter(pre + "small_request_penalty_hits")
	t.mPenaltyBytes = m.Counter(pre + "small_request_penalty_bytes")
}

// Name returns the target name.
func (t *Target) Name() string { return t.cfg.Name }

// Config returns the target's configuration.
func (t *Target) Config() TargetConfig { return t.cfg }

// SetContentionFactor scales the backend capacity for subsequent
// transfers; use ContentionForDay to derive a realistic factor.
func (t *Target) SetContentionFactor(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("pfs: contention factor %v outside (0,1]", f))
	}
	t.contention.Store(math.Float64bits(f))
	t.mContention.Set(f)
}

// ContentionFactor returns the current backend capacity multiplier.
func (t *Target) ContentionFactor() float64 {
	return math.Float64frombits(t.contention.Load())
}

// SetFaults installs the fault hook. Call once, before the run starts;
// transfers read the hook without synchronization.
func (t *Target) SetFaults(h FaultHook) { t.hook = h }

// SetFaultFactor scales the backend and per-flow capacity for
// subsequent transfers, modelling a degraded target (slow OST set,
// rebuilding RAID array). Orthogonal to the contention factor; both
// multiply. Running flows pick the change up at the next flow event
// (arrival or departure) — flow.Server recomputes rates only then.
func (t *Target) SetFaultFactor(f float64) {
	if f <= 0 || f > 1 {
		panic(fmt.Sprintf("pfs: fault factor %v outside (0,1]", f))
	}
	t.fault.Store(math.Float64bits(f))
}

// FaultFactor returns the current fault-injection capacity multiplier.
func (t *Target) FaultFactor() float64 {
	return math.Float64frombits(t.fault.Load())
}

// softmin is a smooth minimum (p-norm, p=3): ≈min(a,b) away from the
// crossover, ~0.79·b at a=b.
func softmin(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return math.Min(a, b)
	}
	a3 := a * a * a
	b3 := b * b * b
	return a * b / math.Cbrt(a3+b3)
}

// reqEff is the efficiency of a request of b bytes.
func (t *Target) reqEff(b int64) float64 {
	if t.cfg.ReqRamp <= 0 || b <= 0 {
		return 1
	}
	return float64(b) / float64(b+t.cfg.ReqRamp)
}

// transfer charges one data request of b bytes, reporting whether the
// request was actually served (and should be counted).
func (t *Target) transfer(p *vclock.Proc, b int64) bool {
	if p == nil || b <= 0 {
		return false
	}
	p.Sleep(t.cfg.OpLatency)
	served := int64(float64(b) / t.reqEff(b))
	if served > b {
		t.mPenaltyHits.Add(1)
		t.mPenaltyBytes.Add(served - b)
	}
	t.mInflight.Add(1)
	// Deferred so a crash (vclock.Killed unwinding the proc mid-transfer)
	// cannot leak the in-flight count into the exported series.
	defer t.mInflight.Add(-1)
	t.srv.TransferLimited(p, served, t.cfg.PerFlowBW*t.ContentionFactor()*t.FaultFactor())
	return true
}

// checkFault consults the fault hook for a charged data request.
func (t *Target) checkFault(p *vclock.Proc, write bool, b int64) error {
	if t.hook == nil || p == nil || b <= 0 {
		return nil
	}
	return t.hook.BeforeData(p, t.cfg.Name, write, b)
}

// TryWriteData is the fallible write charge (hdf5.FallibleDriver): the
// fault hook runs first and a hook error fails the operation before any
// bytes are charged. A nil span skips event recording.
func (t *Target) TryWriteData(p *vclock.Proc, nbytes int64, sp *trace.Span) error {
	if err := t.checkFault(p, true, nbytes); err != nil {
		return err
	}
	start := procNow(p)
	if t.transfer(p, nbytes) {
		t.writeOps.Add(1)
		t.bytesWritten.Add(nbytes)
		t.mWriteOps.Add(1)
		t.mBytesWritten.Add(nbytes)
		sp.EventDurOn(t.writeDetail, nbytes, start, p.Now()-start, p.Name())
		t.crit.Record(critpath.Edge{
			Track: p.Name(), Cause: critpath.PFSTransfer, Subsystem: "pfs",
			Detail: t.writeDetail, Start: start, End: p.Now(), Bytes: nbytes,
		})
	}
	return nil
}

// TryReadData is the fallible read charge (hdf5.FallibleDriver).
func (t *Target) TryReadData(p *vclock.Proc, nbytes int64, sp *trace.Span) error {
	if err := t.checkFault(p, false, nbytes); err != nil {
		return err
	}
	start := procNow(p)
	if t.transfer(p, nbytes) {
		t.readOps.Add(1)
		t.bytesRead.Add(nbytes)
		t.mReadOps.Add(1)
		t.mBytesRead.Add(nbytes)
		sp.EventDurOn(t.readDetail, nbytes, start, p.Now()-start, p.Name())
		t.crit.Record(critpath.Edge{
			Track: p.Name(), Cause: critpath.PFSTransfer, Subsystem: "pfs",
			Detail: t.readDetail, Start: start, End: p.Now(), Bytes: nbytes,
		})
	}
	return nil
}

// WriteData implements hdf5.Driver. Injected faults are swallowed here;
// the hdf5 charge helpers prefer the fallible path, so this only
// surfaces for direct un-hooked callers.
func (t *Target) WriteData(p *vclock.Proc, nbytes int64) {
	_ = t.TryWriteData(p, nbytes, nil)
}

// ReadData implements hdf5.Driver.
func (t *Target) ReadData(p *vclock.Proc, nbytes int64) {
	_ = t.TryReadData(p, nbytes, nil)
}

// WriteDataSpan implements hdf5.SpanDriver: identical charge to
// WriteData, plus a span event covering the transfer in virtual time,
// attributed to the acting process's track.
func (t *Target) WriteDataSpan(p *vclock.Proc, nbytes int64, sp *trace.Span) {
	_ = t.TryWriteData(p, nbytes, sp)
}

// ReadDataSpan implements hdf5.SpanDriver.
func (t *Target) ReadDataSpan(p *vclock.Proc, nbytes int64, sp *trace.Span) {
	_ = t.TryReadData(p, nbytes, sp)
}

// MetaOp implements hdf5.Driver.
func (t *Target) MetaOp(p *vclock.Proc) {
	if p == nil {
		return
	}
	start := p.Now()
	// A fault stall inside the hook is recorded as a FaultStall edge by
	// the injector; its precedence beats the enclosing Metadata bracket.
	if t.hook != nil {
		t.hook.BeforeMeta(p, t.cfg.Name)
	}
	p.Sleep(t.cfg.MetaLatency)
	t.metaOps.Add(1)
	t.mMetaOps.Add(1)
	t.crit.Record(critpath.Edge{
		Track: p.Name(), Cause: critpath.Metadata, Subsystem: "pfs",
		Detail: t.metaDetail, Start: start, End: p.Now(),
	})
}

// procNow returns p's virtual time, tolerating nil.
func procNow(p *vclock.Proc) time.Duration {
	if p == nil {
		return 0
	}
	return p.Now()
}

// EffectiveBandwidth returns the modelled steady-state aggregate
// bandwidth (bytes/s) for n concurrent flows each issuing requests of
// reqBytes, without contention. Used by analyses and docs; the simulation
// itself derives this emergently.
func (t *Target) EffectiveBandwidth(n int, reqBytes int64) float64 {
	c := t.cfg.BackendPeak
	if t.cfg.PerFlowBW > 0 {
		c = softmin(float64(n)*t.cfg.PerFlowBW, c)
	}
	return c * t.reqEff(reqBytes)
}

// GPFSConfig parameterizes a GPFS-like system (Summit's Alpine).
type GPFSConfig struct {
	BackendPeak float64
	PerFlowBW   float64
	ReactRamp   int64 // GPFS reacts to workload; small requests score poorly
	MetaLatency time.Duration
	OpLatency   time.Duration
}

// GPFS builds a GPFS-like target.
func GPFS(clk *vclock.Clock, cfg GPFSConfig) *Target {
	return NewTarget(clk, TargetConfig{
		Name:        "gpfs",
		BackendPeak: cfg.BackendPeak,
		PerFlowBW:   cfg.PerFlowBW,
		ReqRamp:     cfg.ReactRamp,
		MetaLatency: cfg.MetaLatency,
		OpLatency:   cfg.OpLatency,
	})
}

// LustreConfig parameterizes a Lustre-like system (Cori's scratch).
type LustreConfig struct {
	OSTs         int     // stripe count, e.g. NERSC's stripe_large = 72
	OSTBandwidth float64 // per-OST bytes/s
	PerFlowBW    float64
	StripeRamp   int64 // requests smaller than a stripe waste OST work
	MetaLatency  time.Duration
	OpLatency    time.Duration
}

// Lustre builds a Lustre-like target: the backend peak is the striped
// OST set's combined bandwidth.
func Lustre(clk *vclock.Clock, cfg LustreConfig) *Target {
	if cfg.OSTs <= 0 {
		panic(fmt.Sprintf("pfs: Lustre OSTs %d must be positive", cfg.OSTs))
	}
	return NewTarget(clk, TargetConfig{
		Name:        "lustre",
		BackendPeak: float64(cfg.OSTs) * cfg.OSTBandwidth,
		PerFlowBW:   cfg.PerFlowBW,
		ReqRamp:     cfg.StripeRamp,
		MetaLatency: cfg.MetaLatency,
		OpLatency:   cfg.OpLatency,
	})
}

// BurstBuffer builds an SSD burst-buffer target (e.g. Cori's 1.7 TB/s
// DataWarp tier): high backend bandwidth, mild small-request penalty.
func BurstBuffer(clk *vclock.Clock, peak, perFlow float64) *Target {
	return NewTarget(clk, TargetConfig{
		Name:        "burst-buffer",
		BackendPeak: peak,
		PerFlowBW:   perFlow,
		ReqRamp:     256 << 10,
		MetaLatency: 50 * time.Microsecond,
		OpLatency:   20 * time.Microsecond,
	})
}

// ContentionForDay returns a deterministic backend capacity factor for a
// given (seed, day): most days see mild contention, some see heavy
// (skewed toward 1 with a tail toward ~0.35). Both I/O modes of a run
// observe the same day's factor, as they would on a real machine.
func ContentionForDay(seed, day int64) float64 {
	rng := rand.New(rand.NewSource(seed*1_000_003 + day))
	u := rng.Float64()
	return 1 - 0.65*u*u
}
