package critpath

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// almostEq compares float seconds with a tight tolerance (values are
// derived from integer nanoseconds, so exact in practice).
func almostEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(Edge{Track: "rank0", Cause: Compute, Start: 0, End: sec(1)})
	r.ObserveWait("rank0", "sleep", "", 0, sec(1))
	r.MarkInit(sec(1))
	r.MarkEpoch(0, sec(2))
	r.MarkWindow("w", 0, sec(1))
	r.SetMakespan(sec(3))
	if got := r.Edges(); got != nil {
		t.Fatalf("nil recorder Edges = %v", got)
	}
	p := r.Profile("nil")
	if p == nil || p.SchemaVersion != SchemaVersion {
		t.Fatalf("nil recorder Profile = %+v", p)
	}
}

func TestRecordDropsZeroLengthExceptCollective(t *testing.T) {
	r := NewRecorder()
	r.Record(Edge{Track: "rank0", Cause: Compute, Start: sec(1), End: sec(1)})
	r.Record(Edge{Track: "rank0", Cause: CollectiveWait, Subsystem: "mpi",
		Detail: "coll:00000001", Start: sec(1), End: sec(1)})
	edges := r.Edges()
	if len(edges) != 1 {
		t.Fatalf("got %d edges, want 1 (zero-length non-collective dropped)", len(edges))
	}
	if edges[0].Detail != "coll:00000001" {
		t.Fatalf("kept wrong edge: %+v", edges[0])
	}
}

func TestSweepPrecedence(t *testing.T) {
	// A retry backoff nested inside a metadata bracket must win the
	// overlap; the metadata edge keeps only its uncovered flanks.
	r := NewRecorder()
	r.Record(Edge{Track: "rank0", Cause: Metadata, Subsystem: "pfs", Start: sec(0), End: sec(10)})
	r.Record(Edge{Track: "rank0", Cause: RetryBackoff, Subsystem: "ioreq", Start: sec(2), End: sec(5)})
	r.SetMakespan(sec(10))
	p := r.Profile("t")
	if !almostEq(p.CategorySeconds(RetryBackoff), 3) {
		t.Fatalf("retry-backoff = %v, want 3", p.CategorySeconds(RetryBackoff))
	}
	if !almostEq(p.CategorySeconds(Metadata), 7) {
		t.Fatalf("metadata = %v, want 7", p.CategorySeconds(Metadata))
	}
	if !almostEq(p.Coverage, 1) {
		t.Fatalf("coverage = %v, want 1", p.Coverage)
	}
}

func TestSegmentsPickCriticalRank(t *testing.T) {
	// Two ranks, one collective resolving at t=5. Rank 1 arrives last
	// (zero wait), rank 0 waited 2..5. The segment [0,5) belongs to
	// rank1; its compute edge covers it. The tail [5,8) belongs to the
	// track with the latest-ending edge (rank0's pfs transfer).
	r := NewRecorder()
	r.Record(Edge{Track: "rank0", Cause: Compute, Subsystem: "app", Start: sec(0), End: sec(2)})
	r.Record(Edge{Track: "rank0", Cause: CollectiveWait, Subsystem: "mpi",
		Detail: "coll:00000001", Start: sec(2), End: sec(5)})
	r.Record(Edge{Track: "rank1", Cause: Compute, Subsystem: "app", Start: sec(0), End: sec(5)})
	r.Record(Edge{Track: "rank1", Cause: CollectiveWait, Subsystem: "mpi",
		Detail: "coll:00000001", Start: sec(5), End: sec(5)})
	r.Record(Edge{Track: "rank0", Cause: PFSTransfer, Subsystem: "pfs",
		Detail: "pfs:gpfs:write", Start: sec(5), End: sec(8), Bytes: 1 << 20})
	r.SetMakespan(sec(8))
	p := r.Profile("t")
	if len(p.Segments) != 2 {
		t.Fatalf("got %d segments, want 2: %+v", len(p.Segments), p.Segments)
	}
	if p.Segments[0].Track != "rank1" || p.Segments[0].TopCause != Compute {
		t.Fatalf("segment 0 = %+v, want rank1/compute", p.Segments[0])
	}
	if p.Segments[1].Track != "rank0" || p.Segments[1].TopCause != PFSTransfer {
		t.Fatalf("segment 1 = %+v, want rank0/pfs-transfer", p.Segments[1])
	}
	if !almostEq(p.CategorySeconds(Compute), 5) {
		t.Fatalf("compute = %v, want 5", p.CategorySeconds(Compute))
	}
	if !almostEq(p.CategorySeconds(PFSTransfer), 3) {
		t.Fatalf("pfs-transfer = %v, want 3", p.CategorySeconds(PFSTransfer))
	}
	if !almostEq(p.Coverage, 1) {
		t.Fatalf("coverage = %v, want 1", p.Coverage)
	}
	if p.TopCause() != Compute {
		t.Fatalf("top cause = %v, want compute", p.TopCause())
	}
}

func TestUnattributedGap(t *testing.T) {
	r := NewRecorder()
	r.Record(Edge{Track: "rank0", Cause: Compute, Start: sec(0), End: sec(4)})
	r.SetMakespan(sec(10))
	p := r.Profile("t")
	if !almostEq(p.CategorySeconds(Unattributed), 6) {
		t.Fatalf("unattributed = %v, want 6", p.CategorySeconds(Unattributed))
	}
	if !almostEq(p.Coverage, 0.4) {
		t.Fatalf("coverage = %v, want 0.4", p.Coverage)
	}
}

func TestPhaseAndWindowFolding(t *testing.T) {
	r := NewRecorder()
	r.Record(Edge{Track: "rank0", Cause: Compute, Start: sec(0), End: sec(4)})
	r.Record(Edge{Track: "rank0", Cause: PFSTransfer, Subsystem: "pfs", Start: sec(4), End: sec(10)})
	r.MarkInit(sec(1))
	r.MarkEpoch(0, sec(6))
	r.MarkWindow("outage:gpfs", sec(5), sec(9))
	r.SetMakespan(sec(10))
	p := r.Profile("t")
	if len(p.Phases) != 3 {
		t.Fatalf("got %d phases, want 3 (init, epoch:0, term): %+v", len(p.Phases), p.Phases)
	}
	if p.Phases[0].Phase != "init" || p.Phases[1].Phase != "epoch:0" || p.Phases[2].Phase != "term" {
		t.Fatalf("phase names = %q %q %q", p.Phases[0].Phase, p.Phases[1].Phase, p.Phases[2].Phase)
	}
	// epoch:0 spans [1s, 6s): 3s compute + 2s pfs.
	var ep = p.Phases[1]
	if !almostEq(catSeconds(ep.Categories, Compute), 3) || !almostEq(catSeconds(ep.Categories, PFSTransfer), 2) {
		t.Fatalf("epoch:0 categories = %+v", ep.Categories)
	}
	if len(p.Windows) != 1 {
		t.Fatalf("got %d windows, want 1", len(p.Windows))
	}
	if !almostEq(catSeconds(p.Windows[0].Categories, PFSTransfer), 4) {
		t.Fatalf("window categories = %+v", p.Windows[0].Categories)
	}
}

func catSeconds(cats []CategoryTotal, c Cause) float64 {
	for _, ct := range cats {
		if ct.Cause == c {
			return ct.Seconds
		}
	}
	return 0
}

func TestWaitGraphAggregation(t *testing.T) {
	r := NewRecorder()
	r.ObserveWait("rank1", "event", "mpi:collective", sec(0), sec(2))
	r.ObserveWait("rank1", "event", "mpi:collective", sec(3), sec(4))
	r.ObserveWait("rank0", "sleep", "", sec(0), sec(1))
	r.SetMakespan(sec(4))
	p := r.Profile("t")
	if len(p.WaitGraph) != 2 {
		t.Fatalf("wait graph = %+v, want 2 entries", p.WaitGraph)
	}
	// Sorted by proc with numeric awareness: rank0 before rank1.
	if p.WaitGraph[0].Proc != "rank0" || p.WaitGraph[1].Proc != "rank1" {
		t.Fatalf("wait graph order = %+v", p.WaitGraph)
	}
	if p.WaitGraph[1].Count != 2 || !almostEq(p.WaitGraph[1].Seconds, 3) {
		t.Fatalf("aggregated edge = %+v", p.WaitGraph[1])
	}
}

func TestTrackLess(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"rank2", "rank10", true},
		{"rank10", "rank2", false},
		{"rank1", "rank1", false},
		{"rank1", "stream:x", true},
		{"alpha", "beta", true},
	}
	for _, c := range cases {
		if got := trackLess(c.a, c.b); got != c.want {
			t.Errorf("trackLess(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := sampleProfile()
	b, err := p.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParseProfile(b)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := q.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("round trip changed bytes:\n%s\nvs\n%s", b, b2)
	}
}

func TestParseProfileRejectsWrongSchema(t *testing.T) {
	if _, err := ParseProfile([]byte(`{"schema_version": 99}`)); err == nil {
		t.Fatal("expected schema mismatch error")
	}
	if _, err := ParseProfile([]byte(`{`)); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestDiff(t *testing.T) {
	a := sampleProfile()
	b := sampleProfile()
	b.Label = "async"
	// Move 3 of the 6 pfs seconds into compute.
	for i := range b.Categories {
		switch b.Categories[i].Cause {
		case PFSTransfer:
			b.Categories[i].Seconds -= 3
			b.Categories[i].Share = b.Categories[i].Seconds / b.MakespanSeconds
		case Compute:
			b.Categories[i].Seconds += 3
			b.Categories[i].Share = b.Categories[i].Seconds / b.MakespanSeconds
		}
	}
	d := Diff(a, b)
	if d.ALabel != "sync" || d.BLabel != "async" {
		t.Fatalf("labels = %q, %q", d.ALabel, d.BLabel)
	}
	pfs := d.Entry(PFSTransfer)
	if !almostEq(pfs.DeltaSeconds, -3) {
		t.Fatalf("pfs delta = %v, want -3", pfs.DeltaSeconds)
	}
	comp := d.Entry(Compute)
	if !almostEq(comp.DeltaSeconds, 3) {
		t.Fatalf("compute delta = %v, want +3", comp.DeltaSeconds)
	}
	var buf bytes.Buffer
	d.Render(&buf)
	if !strings.Contains(buf.String(), "critpath diff") {
		t.Fatalf("render output missing header:\n%s", buf.String())
	}
}

func TestRender(t *testing.T) {
	var buf bytes.Buffer
	sampleProfile().Render(&buf)
	out := buf.String()
	for _, want := range []string{"critical path: sync", "makespan 10.000000s", "pfs-transfer", "compute"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestPprofDeterministicAndWellFormed(t *testing.T) {
	p := sampleProfile()
	b1, err := p.PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := p.PprofBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("pprof bytes differ between encodes")
	}
	zr, err := gzip.NewReader(bytes.NewReader(b1))
	if err != nil {
		t.Fatalf("output is not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	if len(raw) == 0 {
		t.Fatal("empty pprof payload")
	}
	// The string table must contain the category names in cleartext.
	for _, want := range []string{"critical-path", "nanoseconds", string(PFSTransfer), "track:rank0"} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("pprof payload missing %q", want)
		}
	}
}

// sampleProfile builds a small profile through the real analysis path.
func sampleProfile() *Profile {
	r := NewRecorder()
	r.Record(Edge{Track: "rank0", Cause: Compute, Subsystem: "app", Start: 0, End: sec(4)})
	r.Record(Edge{Track: "rank0", Cause: PFSTransfer, Subsystem: "pfs",
		Detail: "pfs:gpfs:write", Start: sec(4), End: sec(10), Bytes: 8 << 20})
	r.ObserveWait("rank0", "sleep", "", 0, sec(4))
	r.MarkEpoch(0, sec(10))
	r.SetMakespan(sec(10))
	return r.Profile("sync")
}

func TestProfileDeterministicAcrossRecordOrder(t *testing.T) {
	build := func(perm []int) *Profile {
		edges := []Edge{
			{Track: "rank0", Cause: Compute, Subsystem: "app", Start: 0, End: sec(2)},
			{Track: "rank1", Cause: Compute, Subsystem: "app", Start: 0, End: sec(5)},
			{Track: "rank0", Cause: CollectiveWait, Subsystem: "mpi", Detail: "coll:00000001", Start: sec(2), End: sec(5)},
			{Track: "rank1", Cause: CollectiveWait, Subsystem: "mpi", Detail: "coll:00000001", Start: sec(5), End: sec(5)},
		}
		r := NewRecorder()
		for _, i := range perm {
			r.Record(edges[i])
		}
		r.SetMakespan(sec(5))
		return r.Profile("perm")
	}
	base, err := build([]int{0, 1, 2, 3}).MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, perm := range [][]int{{3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}} {
		b, err := build(perm).MarshalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(base, b) {
			t.Fatalf("profile bytes depend on record order (perm %v)", perm)
		}
	}
}
