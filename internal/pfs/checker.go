// ConsistencyChecker is the visibility oracle behind -consistency's
// check=1: it records every write, read, sync, close, and commit on the
// virtual clock and asserts, after the run, that the program only
// depended on visibility the model actually guarantees — and that data
// the model promised durable survived a crash.
//
// Formal rules, per model, for a read R by rank r overlapping a write W
// by rank w ≠ r on the same dataset extent (intervals in virtual time,
// half-open):
//
//   - all models: R concurrent with W (R.Start < W.End and W.Start <
//     R.End) is a data race — no model defines the bytes observed.
//   - posix: W is visible once it completed; W.End ≤ R.Start suffices.
//   - session: visible only if w closed the file after W and before R:
//     ∃ Close(w,t) with W.End ≤ t ≤ R.Start.
//   - mpiio: sync-barrier-sync — the writer synced after W and the
//     reader synced after that, before R: ∃ Sync(w,tw), Sync(r,tr)
//     with W.End ≤ tw ≤ tr ≤ R.Start.
//   - commit: visible only once globally committed: ∃ Commit(t) with
//     W.End ≤ t ≤ R.Start.
//
// Cross-rank writes to one extent that overlap in virtual time violate
// posix (the range locks would have serialized them); the weaker models
// leave concurrent writers undefined until publish, so the checker
// allows them.
//
// Durability: every model records commit instants (the checkpoints'
// fsync barriers). A write that completed at or before the last commit
// is promised durable; VerifyDurable re-reads those extents from a
// post-crash image and compares payload checksums.
package pfs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"asyncio/internal/hdf5"
	"asyncio/internal/ioreq"
)

type eventKind uint8

const (
	evWrite eventKind = iota
	evRead
	evSync
	evClose
	evCommit
)

func (k eventKind) String() string {
	switch k {
	case evWrite:
		return "write"
	case evRead:
		return "read"
	case evSync:
		return "sync"
	case evClose:
		return "close"
	case evCommit:
		return "commit"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// elemRun is one contiguous element run of a recorded selection.
type elemRun struct {
	off, n uint64
}

// consEvent is one recorded protocol event.
type consEvent struct {
	kind       eventKind
	rank       int
	path       string // dataset path; "" for marks
	elemSize   int64
	oneDim     bool
	runs       []elemRun
	start, end time.Duration // marks use end only
	sum        uint64        // FNV-1a of the payload, when materialized
	hasSum     bool
	epoch      int // commit only
	seq        uint64
}

// Violation is one assertion failure of the model's guarantees.
type Violation struct {
	Model Model
	// Kind is "data-race", "stale-read", "write-race", or
	// "lost-durable".
	Kind    string
	Dataset string
	// Rank is the observing rank (reader, or a racing writer);
	// PeerRank the rank whose write was involved.
	Rank, PeerRank int
	At             time.Duration
	Detail         string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s %s rank%d/rank%d at %v: %s",
		v.Model, v.Kind, v.Dataset, v.Rank, v.PeerRank, v.At, v.Detail)
}

// ViolationError is the typed error Check and VerifyDurable return: a
// run either passes the oracle clean or fails with one of these — never
// with silent corruption.
type ViolationError struct {
	Model      Model
	Violations []Violation
}

func (e *ViolationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "consistency: %d %s-model violation(s)", len(e.Violations), e.Model)
	for i, v := range e.Violations {
		if i == 3 {
			fmt.Fprintf(&b, "; … %d more", len(e.Violations)-i)
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return b.String()
}

// ConsistencyChecker records protocol events for one run. All recording
// methods are safe for concurrent use and tolerate a nil receiver (the
// checker is only allocated under check=1).
type ConsistencyChecker struct {
	model Model
	mu    sync.Mutex
	evs   []consEvent
	seq   uint64
}

func newChecker(m Model) *ConsistencyChecker {
	return &ConsistencyChecker{model: m}
}

// Model returns the model whose guarantees this checker asserts.
func (ck *ConsistencyChecker) Model() Model {
	if ck == nil {
		return ""
	}
	return ck.model
}

// recordOp records a data operation from its executed request.
func (ck *ConsistencyChecker) recordOp(kind eventKind, rank int, req *ioreq.Request, start, end time.Duration) {
	if ck == nil {
		return
	}
	ev := consEvent{kind: kind, rank: rank, start: start, end: end}
	if ds := req.Dataset; ds != nil {
		ev.path = ds.Path()
		ev.elemSize = int64(ds.Dtype().Size)
		ev.oneDim = len(ds.Dims()) == 1
	}
	if sp := req.Space; sp != nil {
		_ = sp.EachRun(func(off, n uint64) error {
			ev.runs = append(ev.runs, elemRun{off: off, n: n})
			return nil
		})
	}
	if kind == evWrite && req.Op == ioreq.OpWrite && len(req.Buf) > 0 {
		ev.sum = fnv1a(req.Buf)
		ev.hasSum = true
	}
	ck.append(ev)
}

// recordMark records a sync/close/commit instant.
func (ck *ConsistencyChecker) recordMark(kind eventKind, rank int, at time.Duration, epoch int) {
	if ck == nil {
		return
	}
	ck.append(consEvent{kind: kind, rank: rank, end: at, epoch: epoch})
}

func (ck *ConsistencyChecker) append(ev consEvent) {
	ck.mu.Lock()
	ev.seq = ck.seq
	ck.seq++
	ck.evs = append(ck.evs, ev)
	ck.mu.Unlock()
}

// sorted returns a canonically ordered copy of the event log: by start,
// end, kind, rank, path, then extent — a pure function of virtual time,
// so it does not depend on the order events arrived in the log.
func (ck *ConsistencyChecker) sorted() []consEvent {
	ck.mu.Lock()
	evs := append([]consEvent(nil), ck.evs...)
	ck.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.start != b.start {
			return a.start < b.start
		}
		if a.end != b.end {
			return a.end < b.end
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		if a.path != b.path {
			return a.path < b.path
		}
		if len(a.runs) > 0 && len(b.runs) > 0 && a.runs[0].off != b.runs[0].off {
			return a.runs[0].off < b.runs[0].off
		}
		return a.seq < b.seq
	})
	return evs
}

// Summary returns a deterministic one-line digest of the event log for
// fingerprint comparisons between runs.
func (ck *ConsistencyChecker) Summary() string {
	if ck == nil {
		return "consistency=off"
	}
	var w, r, s, c, m int
	var lastCommit time.Duration
	for _, ev := range ck.sorted() {
		switch ev.kind {
		case evWrite:
			w++
		case evRead:
			r++
		case evSync:
			s++
		case evClose:
			c++
		case evCommit:
			m++
			if ev.end > lastCommit {
				lastCommit = ev.end
			}
		}
	}
	return fmt.Sprintf("consistency=%s writes=%d reads=%d syncs=%d closes=%d commits=%d lastCommit=%v",
		ck.model, w, r, s, c, m, lastCommit)
}

// overlap reports whether two run sets on the same dataset share any
// elements.
func runsOverlap(a, b []elemRun) bool {
	for _, x := range a {
		for _, y := range b {
			if x.off < y.off+y.n && y.off < x.off+x.n {
				return true
			}
		}
	}
	return false
}

// Check asserts the model's visibility guarantees over the recorded
// log. It returns nil when the run is clean, or a *ViolationError.
func (ck *ConsistencyChecker) Check() error {
	if ck == nil {
		return nil
	}
	evs := ck.sorted()
	var writes, reads []consEvent
	syncs := map[int][]time.Duration{}  // rank → sync instants, ascending
	closes := map[int][]time.Duration{} // rank → close instants, ascending
	var commits []time.Duration
	for _, ev := range evs {
		switch ev.kind {
		case evWrite:
			writes = append(writes, ev)
		case evRead:
			reads = append(reads, ev)
		case evSync:
			syncs[ev.rank] = append(syncs[ev.rank], ev.end)
		case evClose:
			closes[ev.rank] = append(closes[ev.rank], ev.end)
		case evCommit:
			commits = append(commits, ev.end)
		}
	}
	var vs []Violation
	for _, r := range reads {
		for _, w := range writes {
			if w.rank == r.rank || w.path != r.path || !runsOverlap(w.runs, r.runs) {
				continue
			}
			if r.start < w.end && w.start < r.end {
				vs = append(vs, Violation{
					Model: ck.model, Kind: "data-race", Dataset: r.path,
					Rank: r.rank, PeerRank: w.rank, At: r.start,
					Detail: fmt.Sprintf("read [%v,%v) concurrent with write [%v,%v)", r.start, r.end, w.start, w.end),
				})
				continue
			}
			if w.end > r.start {
				// The write happened entirely after the read; no
				// visibility obligation.
				continue
			}
			if !ck.visibleAt(w, r, syncs, closes, commits) {
				vs = append(vs, Violation{
					Model: ck.model, Kind: "stale-read", Dataset: r.path,
					Rank: r.rank, PeerRank: w.rank, At: r.start,
					Detail: fmt.Sprintf("read at %v observes write [%v,%v) the %s model has not published",
						r.start, w.start, w.end, ck.model),
				})
			}
		}
	}
	if ck.model == ModelPOSIX {
		for i, a := range writes {
			for _, b := range writes[i+1:] {
				if a.rank == b.rank || a.path != b.path || !runsOverlap(a.runs, b.runs) {
					continue
				}
				if a.start < b.end && b.start < a.end {
					vs = append(vs, Violation{
						Model: ck.model, Kind: "write-race", Dataset: a.path,
						Rank: b.rank, PeerRank: a.rank, At: b.start,
						Detail: fmt.Sprintf("writes [%v,%v) and [%v,%v) overlap in time on one extent under posix locking",
							a.start, a.end, b.start, b.end),
					})
				}
			}
		}
	}
	if len(vs) == 0 {
		return nil
	}
	return &ViolationError{Model: ck.model, Violations: vs}
}

// visibleAt reports whether write w is guaranteed visible to read r
// under the model, given the publish events.
func (ck *ConsistencyChecker) visibleAt(w, r consEvent, syncs, closes map[int][]time.Duration, commits []time.Duration) bool {
	switch ck.model {
	case ModelPOSIX:
		return true // w.end ≤ r.start already established
	case ModelSession:
		return firstAtOrAfter(closes[w.rank], w.end, r.start) >= 0
	case ModelMPIIO:
		tw := firstAtOrAfter(syncs[w.rank], w.end, r.start)
		if tw < 0 {
			return false
		}
		return firstAtOrAfter(syncs[r.rank], time.Duration(tw), r.start) >= 0
	case ModelCommit:
		return firstAtOrAfter(commits, w.end, r.start) >= 0
	}
	return false
}

// firstAtOrAfter returns the earliest instant in ts with from ≤ t ≤ to,
// or -1 when none exists. ts is ascending.
func firstAtOrAfter(ts []time.Duration, from, to time.Duration) int64 {
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= from })
	if i < len(ts) && ts[i] <= to {
		return int64(ts[i])
	}
	return -1
}

// LastCommit returns the latest recorded commit instant and whether one
// exists.
func (ck *ConsistencyChecker) LastCommit() (time.Duration, bool) {
	if ck == nil {
		return 0, false
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	var last time.Duration
	ok := false
	for _, ev := range ck.evs {
		if ev.kind == evCommit && (!ok || ev.end > last) {
			last, ok = ev.end, true
		}
	}
	return last, ok
}

// VerifyDurable asserts the model's durability promise against a
// post-crash (and post-recovery) image: every materialized write that
// completed at or before the last commit must read back with its
// recorded checksum. Writes whose extents a later recorded write
// overwrote are skipped (last write wins), as are discard-mode writes
// (no payload to checksum) and non-1-D datasets (the harness workloads
// are 1-D; flattened-run read-back is only defined there). Returns nil,
// a *ViolationError, or an I/O error from the image itself.
func (ck *ConsistencyChecker) VerifyDurable(store Store) error {
	if ck == nil {
		return nil
	}
	lastCommit, ok := ck.LastCommit()
	if !ok {
		return nil // nothing was promised
	}
	evs := ck.sorted()
	var writes []consEvent
	for _, ev := range evs {
		if ev.kind == evWrite {
			writes = append(writes, ev)
		}
	}
	var f *hdf5.File
	var vs []Violation
	for i, w := range writes {
		if !w.hasSum || !w.oneDim || w.end > lastCommit {
			continue
		}
		overwritten := false
		for _, later := range writes[i+1:] {
			if later.path == w.path && later.start >= w.end && runsOverlap(w.runs, later.runs) {
				overwritten = true
				break
			}
		}
		if overwritten {
			continue
		}
		if f == nil {
			var err error
			f, err = hdf5.Open(store)
			if err != nil {
				return fmt.Errorf("consistency: opening post-crash image: %w", err)
			}
		}
		sum, err := readbackSum(f, w)
		if err != nil {
			vs = append(vs, Violation{
				Model: ck.model, Kind: "lost-durable", Dataset: w.path,
				Rank: w.rank, PeerRank: w.rank, At: w.end,
				Detail: fmt.Sprintf("committed write unreadable after crash: %v", err),
			})
			continue
		}
		if sum != w.sum {
			vs = append(vs, Violation{
				Model: ck.model, Kind: "lost-durable", Dataset: w.path,
				Rank: w.rank, PeerRank: w.rank, At: w.end,
				Detail: fmt.Sprintf("committed write (ended %v ≤ last commit %v) reads back corrupted", w.end, lastCommit),
			})
		}
	}
	if len(vs) == 0 {
		return nil
	}
	return &ViolationError{Model: ck.model, Violations: vs}
}

// readbackSum re-reads the write's element runs from the image and
// checksums them in run order (the order the payload was recorded in).
func readbackSum(f *hdf5.File, w consEvent) (uint64, error) {
	ds, err := f.Root().OpenDataset(nil, strings.TrimPrefix(w.path, "/"))
	if err != nil {
		return 0, err
	}
	dims := ds.Dims()
	if len(dims) != 1 {
		return 0, fmt.Errorf("dataset %s is not 1-D", w.path)
	}
	h := fnvOffset
	for _, run := range w.runs {
		sp, err := hdf5.NewSimple(dims[0])
		if err != nil {
			return 0, err
		}
		if err := sp.SelectHyperslab([]uint64{run.off}, nil, []uint64{1}, []uint64{run.n}); err != nil {
			return 0, err
		}
		buf := make([]byte, run.n*uint64(w.elemSize))
		if err := ds.Read(nil, sp, buf); err != nil {
			return 0, err
		}
		h = fnv1aInto(h, buf)
	}
	return h, nil
}

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnv1a hashes b with FNV-1a 64.
func fnv1a(b []byte) uint64 { return fnv1aInto(fnvOffset, b) }

func fnv1aInto(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime
	}
	return h
}
