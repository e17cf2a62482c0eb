package pfs

import (
	"errors"
	"testing"
	"time"

	"asyncio/internal/hdf5"
)

// ev builds one synthetic data event on dataset "/d" covering elements
// [off, off+n).
func ev(kind eventKind, rank int, off, n uint64, start, end time.Duration) consEvent {
	return consEvent{
		kind: kind, rank: rank, path: "/d", elemSize: 4, oneDim: true,
		runs: []elemRun{{off: off, n: n}}, start: start, end: end,
	}
}

func checkerWith(t *testing.T, model Model, evs ...consEvent) *ConsistencyChecker {
	t.Helper()
	ck := newChecker(model)
	for _, e := range evs {
		ck.append(e)
	}
	return ck
}

// wantViolation asserts Check fails with exactly the given kind, via
// the typed error satellite 1 depends on.
func wantViolation(t *testing.T, ck *ConsistencyChecker, kind string) {
	t.Helper()
	err := ck.Check()
	if err == nil {
		t.Fatalf("%s: expected a %s violation, got clean", ck.model, kind)
	}
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("%s: error is %T, want *ViolationError", ck.model, err)
	}
	if verr.Model != ck.model {
		t.Errorf("violation model = %s, want %s", verr.Model, ck.model)
	}
	for _, v := range verr.Violations {
		if v.Kind != kind {
			t.Errorf("violation kind = %s, want %s (%s)", v.Kind, kind, v)
		}
	}
}

func wantClean(t *testing.T, ck *ConsistencyChecker) {
	t.Helper()
	if err := ck.Check(); err != nil {
		t.Fatalf("%s: expected clean, got %v", ck.model, err)
	}
}

const ms = time.Millisecond

func TestCheckerDataRaceAllModels(t *testing.T) {
	// A read overlapping an in-flight cross-rank write is undefined
	// under every model.
	for _, m := range []Model{ModelPOSIX, ModelSession, ModelMPIIO, ModelCommit} {
		ck := checkerWith(t, m,
			ev(evWrite, 0, 0, 10, 1*ms, 5*ms),
			ev(evRead, 1, 5, 10, 4*ms, 6*ms),
		)
		wantViolation(t, ck, "data-race")
	}
}

func TestCheckerPOSIXReadAfterWriteClean(t *testing.T) {
	wantClean(t, checkerWith(t, ModelPOSIX,
		ev(evWrite, 0, 0, 10, 1*ms, 2*ms),
		ev(evRead, 1, 0, 10, 3*ms, 4*ms),
	))
}

func TestCheckerPOSIXWriteRace(t *testing.T) {
	ck := checkerWith(t, ModelPOSIX,
		ev(evWrite, 0, 0, 10, 1*ms, 5*ms),
		ev(evWrite, 1, 5, 10, 2*ms, 6*ms),
	)
	wantViolation(t, ck, "write-race")

	// Disjoint extents may overlap in time.
	wantClean(t, checkerWith(t, ModelPOSIX,
		ev(evWrite, 0, 0, 10, 1*ms, 5*ms),
		ev(evWrite, 1, 10, 10, 2*ms, 6*ms),
	))
	// The weaker models leave concurrent writers undefined until
	// publish; no violation.
	wantClean(t, checkerWith(t, ModelCommit,
		ev(evWrite, 0, 0, 10, 1*ms, 5*ms),
		ev(evWrite, 1, 5, 10, 2*ms, 6*ms),
	))
}

func TestCheckerSessionVisibility(t *testing.T) {
	w := ev(evWrite, 0, 0, 10, 1*ms, 2*ms)
	r := ev(evRead, 1, 0, 10, 5*ms, 6*ms)

	// No close: the read depends on unpublished data.
	wantViolation(t, checkerWith(t, ModelSession, w, r), "stale-read")
	// Close between write end and read start: published.
	wantClean(t, checkerWith(t, ModelSession, w, r,
		consEvent{kind: evClose, rank: 0, end: 3 * ms}))
	// A close before the write finished does not publish it.
	wantViolation(t, checkerWith(t, ModelSession, w, r,
		consEvent{kind: evClose, rank: 0, end: 1 * ms}), "stale-read")
	// The reader's own close is irrelevant.
	wantViolation(t, checkerWith(t, ModelSession, w, r,
		consEvent{kind: evClose, rank: 1, end: 3 * ms}), "stale-read")
	// Same-rank reads need no publish at all.
	wantClean(t, checkerWith(t, ModelSession, w,
		ev(evRead, 0, 0, 10, 5*ms, 6*ms)))
}

func TestCheckerMPIIOSyncBarrierSync(t *testing.T) {
	w := ev(evWrite, 0, 0, 10, 1*ms, 2*ms)
	r := ev(evRead, 1, 0, 10, 8*ms, 9*ms)

	// No syncs at all.
	wantViolation(t, checkerWith(t, ModelMPIIO, w, r), "stale-read")
	// Writer synced but reader never did: not guaranteed.
	wantViolation(t, checkerWith(t, ModelMPIIO, w, r,
		consEvent{kind: evSync, rank: 0, end: 3 * ms}), "stale-read")
	// Reader synced before the writer: still not guaranteed.
	wantViolation(t, checkerWith(t, ModelMPIIO, w, r,
		consEvent{kind: evSync, rank: 0, end: 5 * ms},
		consEvent{kind: evSync, rank: 1, end: 4 * ms}), "stale-read")
	// Writer sync, then reader sync, then the read: the full
	// sync-barrier-sync chain.
	wantClean(t, checkerWith(t, ModelMPIIO, w, r,
		consEvent{kind: evSync, rank: 0, end: 3 * ms},
		consEvent{kind: evSync, rank: 1, end: 4 * ms}))
}

func TestCheckerCommitVisibility(t *testing.T) {
	w := ev(evWrite, 0, 0, 10, 1*ms, 2*ms)
	r := ev(evRead, 1, 0, 10, 5*ms, 6*ms)

	wantViolation(t, checkerWith(t, ModelCommit, w, r), "stale-read")
	wantClean(t, checkerWith(t, ModelCommit, w, r,
		consEvent{kind: evCommit, end: 3 * ms}))
	// A commit before the write completed publishes nothing.
	wantViolation(t, checkerWith(t, ModelCommit, w, r,
		consEvent{kind: evCommit, end: 1 * ms}), "stale-read")
}

func TestCheckerSummaryDeterministic(t *testing.T) {
	a := checkerWith(t, ModelMPIIO,
		ev(evWrite, 0, 0, 10, 1*ms, 2*ms),
		ev(evRead, 1, 0, 10, 5*ms, 6*ms),
		consEvent{kind: evSync, rank: 0, end: 3 * ms},
		consEvent{kind: evCommit, end: 7 * ms, epoch: 0},
	)
	// Same events, reversed arrival order.
	b := checkerWith(t, ModelMPIIO,
		consEvent{kind: evCommit, end: 7 * ms, epoch: 0},
		consEvent{kind: evSync, rank: 0, end: 3 * ms},
		ev(evRead, 1, 0, 10, 5*ms, 6*ms),
		ev(evWrite, 0, 0, 10, 1*ms, 2*ms),
	)
	if a.Summary() != b.Summary() {
		t.Errorf("summaries differ across arrival orders:\n%s\n%s", a.Summary(), b.Summary())
	}
}

// durableFixture creates a one-dataset file with n float32 elements
// written as [0,1,2,...] and returns the store plus the payload bytes.
func durableFixture(t *testing.T, n uint64) (*hdf5.MemStore, []byte) {
	t.Helper()
	store := hdf5.NewMemStore()
	f, err := hdf5.Create(store)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := f.Root().CreateDataset(nil, "d", hdf5.F32, hdf5.MustSimple(n), nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4*n)
	for i := range buf {
		buf[i] = byte(i)
	}
	if err := ds.Write(nil, nil, buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(nil); err != nil {
		t.Fatal(err)
	}
	return store, buf
}

func TestCheckerVerifyDurable(t *testing.T) {
	store, buf := durableFixture(t, 16)

	write := consEvent{
		kind: evWrite, rank: 0, path: "/d", elemSize: 4, oneDim: true,
		runs: []elemRun{{off: 0, n: 16}}, start: 1 * ms, end: 2 * ms,
		sum: fnv1a(buf), hasSum: true,
	}
	commit := consEvent{kind: evCommit, end: 3 * ms}

	// Committed and intact: clean.
	ck := checkerWith(t, ModelCommit, write, commit)
	if err := ck.VerifyDurable(store); err != nil {
		t.Fatalf("intact image: %v", err)
	}

	// No commit: nothing promised, even for corrupt-looking sums.
	bad := write
	bad.sum++
	if err := checkerWith(t, ModelCommit, bad).VerifyDurable(store); err != nil {
		t.Fatalf("no commit: %v", err)
	}

	// Committed but the image holds different bytes: lost-durable.
	err := checkerWith(t, ModelCommit, bad, commit).VerifyDurable(store)
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("corrupt committed write: got %v, want *ViolationError", err)
	}
	if verr.Violations[0].Kind != "lost-durable" {
		t.Errorf("kind = %s, want lost-durable", verr.Violations[0].Kind)
	}

	// A write completed after the commit is not promised.
	late := bad
	late.start, late.end = 4*ms, 5*ms
	if err := checkerWith(t, ModelCommit, write, commit, late).VerifyDurable(store); err != nil {
		t.Fatalf("post-commit write must not be promised: %v", err)
	}

	// An overwritten committed write is exempt (last write wins).
	over := write
	over.start, over.end = 2*ms, 3*ms
	over.sum = fnv1a(buf) // the final image holds the second write
	stale := write
	stale.sum++ // first write's payload is gone, and that is fine
	if err := checkerWith(t, ModelCommit, stale, over, consEvent{kind: evCommit, end: 4 * ms}).VerifyDurable(store); err != nil {
		t.Fatalf("overwritten write must be exempt: %v", err)
	}

	// A committed write pointing at a dataset the image lost entirely.
	gone := write
	gone.path = "/missing"
	err = checkerWith(t, ModelCommit, gone, commit).VerifyDurable(store)
	if !errors.As(err, &verr) {
		t.Fatalf("missing dataset: got %v, want *ViolationError", err)
	}
}
