// Package harness carries the plumbing every workload shares: per-rank
// VOL connector setup (a native synchronous connector plus an asyncvol
// connector with the system's transactional-copy model), mode-keyed file
// handles over one shared container, and teardown. Workloads compose it
// with core.Hooks.
package harness

import (
	"fmt"
	"sync"

	"asyncio/internal/asyncvol"
	"asyncio/internal/core"
	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
	"asyncio/internal/systems"
	"asyncio/internal/taskengine"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
	"asyncio/internal/vol"
)

// Env is one rank's I/O environment.
type Env struct {
	Rank      int
	Conn      *asyncvol.Connector
	AsyncFile vol.File
	SyncFile  vol.File
	ES        *asyncvol.EventSet

	syncPL *ioreq.Pipeline // non-nil when Options.SyncPipeline was set
}

// Options configures environment construction.
type Options struct {
	// Materialize makes staging buffers real (small-scale correctness
	// runs). Full-scale timing runs leave it false.
	Materialize bool
	// GPU stages through the GPU link before the host copy (Nyx's GPU
	// configuration); Pinned selects pinned host buffers.
	GPU    bool
	Pinned bool
	// SSD stages to the node-local SSD instead of DRAM.
	SSD bool
	// ZeroCopy disables the transactional copy entirely — the ablation
	// of the overhead term.
	ZeroCopy bool
	// SyncPipeline overrides the synchronous connector's I/O request
	// pipeline. Pass one instance shared by every rank (e.g.
	// ioreq.New(ioreq.NewAgg(cfg))) to aggregate adjacent writes across
	// ranks; Term flushes it before closing the file.
	SyncPipeline *ioreq.Pipeline
	// AsyncAggregate enables the aggregation stage inside each rank's
	// asynchronous connector. The zero value leaves it off.
	AsyncAggregate ioreq.AggConfig
	// AsyncInlineStages are extra caller-side stages for each rank's
	// asynchronous connector, run before the staging copy (e.g. the
	// write-ahead journal stage). Shared across ranks; must be
	// concurrency-safe.
	AsyncInlineStages []ioreq.Stage
}

// NewEnv builds the per-rank environment around a shared raw file. The
// engine must be shared by all ranks of the run (one background stream
// is created per rank, matching vol-async).
func NewEnv(ctx *core.RankCtx, eng *taskengine.Engine, raw *hdf5.File, opts Options) *Env {
	var copyModel asyncvol.CopyModel
	switch {
	case opts.ZeroCopy:
		copyModel = nil
	case opts.SSD:
		copyModel = asyncvol.CopyFunc(ctx.Sys.SSDStageModel(ctx.Rank))
	case opts.GPU:
		copyModel = asyncvol.CopyFunc(ctx.Sys.GPUCopyModel(ctx.Rank, opts.Pinned))
	default:
		copyModel = asyncvol.CopyFunc(ctx.Sys.MemcpyModel(ctx.Rank))
	}
	eng.SetMetrics(ctx.Sys.Metrics)
	eng.SetCrit(ctx.Sys.Crit)
	avOpts := asyncvol.Options{
		Copy:         copyModel,
		Materialize:  opts.Materialize,
		Aggregate:    opts.AsyncAggregate,
		Metrics:      ctx.Sys.Metrics,
		Crit:         ctx.Sys.Crit,
		InlineStages: opts.AsyncInlineStages,
	}
	// The consistency stage sits upstream of the retry stage on both
	// paths, so one successful execution records exactly one write no
	// matter how many retries it took. It runs on the executing process:
	// the rank itself synchronously, the background stream
	// asynchronously — which is how async hides visibility cost.
	cs := ctx.Sys.Consistency
	consStage := cs.Stage(ctx.Rank)
	syncPL := opts.SyncPipeline
	var execStages, syncStages []ioreq.Stage
	if consStage != nil {
		execStages = append(execStages, consStage)
		syncStages = append(syncStages, consStage)
	}
	if in := ctx.Sys.Faults; in != nil {
		// A faulted system retries on both paths: the connector's
		// background executor and (absent a caller-supplied pipeline)
		// the synchronous route. Assign the interface field only from a
		// non-nil injector so the nil check inside asyncvol stays valid.
		avOpts.Faults = in
		execStages = append(execStages, in.RetryStage())
		syncStages = append(syncStages, in.RetryStage())
	}
	avOpts.ExecStages = execStages
	if syncPL == nil && len(syncStages) > 0 {
		syncPL = ioreq.New(syncStages...).WithMetrics(ctx.Sys.Metrics)
	}
	if cs != nil {
		rank := ctx.Rank
		// Publish points: a drain is the connector's sync barrier
		// (MPI-IO), a close ends the session (session consistency).
		avOpts.OnDrained = func(p *vclock.Proc) { cs.RankSync(p, rank) }
		avOpts.OnClose = func(p *vclock.Proc) { cs.RankClose(p, rank) }
	}
	conn := asyncvol.New(eng, fmt.Sprintf("rank%d", ctx.Rank), avOpts)
	// If the run has a crash schedule, the rank's background stream dies
	// with the rank: queued asynchronous writes are abandoned un-issued,
	// which is exactly the data-loss window crash experiments measure.
	ctx.OnCrash(func(reason error) { conn.Kill(reason) })
	es := asyncvol.NewEventSet()
	es.SetCrit(ctx.Sys.Crit)
	return &Env{
		Rank:      ctx.Rank,
		Conn:      conn,
		AsyncFile: conn.Wrap(raw),
		SyncFile:  vol.Native{Pipeline: syncPL}.Wrap(raw),
		ES:        es,
		syncPL:    syncPL,
	}
}

// File returns the handle for the given I/O mode.
func (e *Env) File(mode trace.Mode) vol.File {
	if mode == trace.Async {
		return e.AsyncFile
	}
	return e.SyncFile
}

// Props returns transfer props for the given mode: asynchronous
// operations are tracked in the env's event set.
func (e *Env) Props(p *vclock.Proc, mode trace.Mode) vol.Props {
	if mode == trace.Async {
		return vol.Props{Proc: p, Set: e.ES}
	}
	return vol.Props{Proc: p}
}

// Drain waits for all outstanding asynchronous work of this rank.
func (e *Env) Drain(p *vclock.Proc) error {
	if err := e.ES.Wait(p); err != nil {
		return err
	}
	return e.Conn.Drain(p)
}

// Term drains, closes the file (idempotent across ranks), and shuts the
// background stream down. A shared synchronous aggregation pipeline is
// flushed first so buffered writes reach the store before close.
func (e *Env) Term(p *vclock.Proc) error {
	if e.syncPL != nil {
		if err := e.syncPL.Flush(p); err != nil {
			return err
		}
	}
	if err := e.AsyncFile.Close(vol.Props{Proc: p}); err != nil {
		return err
	}
	e.Conn.Shutdown()
	return nil
}

// NewStore returns the store appropriate for the scale: a MemStore when
// materializing, a NullStore otherwise.
func NewStore(materialize bool) hdf5.Store {
	if materialize {
		return hdf5.NewMemStore()
	}
	return hdf5.NewNullStore()
}

// CreateSharedFile creates the run's container on the system's PFS
// driver. Call from the host before core.Run; creation cost is part of
// t_init and charged when ranks open objects.
func CreateSharedFile(sys *systems.System, materialize bool) (*hdf5.File, error) {
	return CreateSharedFileOn(sys.PFS, materialize)
}

// CreateSharedFileOn creates the run's container on a specific timing
// driver — e.g. a burst-buffer tier instead of the scratch file system.
func CreateSharedFileOn(target hdf5.Driver, materialize bool) (*hdf5.File, error) {
	return hdf5.Create(NewStore(materialize), hdf5.WithDriver(target))
}

// Slab1D selects rank's contiguous share of a 1-D dataset of total
// elements: [rank*per, rank*per+per).
func Slab1D(total, per uint64, rank int) (*hdf5.Dataspace, error) {
	sp, err := hdf5.NewSimple(total)
	if err != nil {
		return nil, err
	}
	start := uint64(rank) * per
	if err := sp.SelectHyperslab([]uint64{start}, nil, []uint64{1}, []uint64{per}); err != nil {
		return nil, err
	}
	return sp, nil
}

// Buffer returns a zeroed buffer of n bytes when materializing, or a
// shared dummy buffer otherwise (the NullStore discards contents, so
// sharing is safe and avoids allocating gigabytes across ranks). The
// shared buffer is allocated on first use: discard-mode runs — every
// figure sweep — never request it, and eagerly zeroing tens of
// megabytes per run dominated whole-simulation allocation profiles.
type BufferPool struct {
	max    int64
	once   sync.Once
	shared []byte
}

// NewBufferPool caps the shared dummy buffer at the largest per-rank
// request.
func NewBufferPool(maxBytes int64) *BufferPool {
	return &BufferPool{max: maxBytes}
}

// Get returns a buffer of exactly n bytes. Requests beyond the pool's
// capacity panic: the pool is shared by concurrent ranks and must not
// reallocate.
func (bp *BufferPool) Get(n int64, materialize bool) []byte {
	if materialize {
		return make([]byte, n)
	}
	if n > bp.max {
		panic(fmt.Sprintf("harness: buffer request %d exceeds pool %d", n, bp.max))
	}
	bp.once.Do(func() { bp.shared = make([]byte, bp.max) })
	return bp.shared[:n]
}
