// Critical-path extraction and blame attribution.
//
// The segmentation exploits the BSP structure every workload shares
// through core.Run: all ranks issue the same root-world MPI collective
// sequence in the same order, and every rank leaves a collective at the
// same virtual instant. Each collective's resolve instant is therefore
// a global synchronization point, and the interval between consecutive
// resolve instants has a well-defined critical rank: the rank that
// arrived last at the closing collective (it was continuously busy for
// the whole interval — everyone else got to wait for it). Attributing
// that rank's typed edges over the interval, with overlap resolved by
// cause precedence, explains the segment; summing segments explains the
// makespan.
package critpath

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// SchemaVersion is bumped whenever the JSON profile shape changes.
const SchemaVersion = 1

// CategoryTotal is one blame category's share of an interval.
type CategoryTotal struct {
	Cause   Cause   `json:"cause"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
}

// AttrRow is the fine-grained attribution used by the pprof export:
// critical-path time keyed by (cause, subsystem, track).
type AttrRow struct {
	Cause     Cause   `json:"cause"`
	Subsystem string  `json:"subsystem"`
	Track     string  `json:"track"`
	Seconds   float64 `json:"seconds"`
}

// Segment is one critical-path interval between global sync points.
type Segment struct {
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
	Track        string  `json:"track"`
	TopCause     Cause   `json:"top_cause"`
}

// PhaseProfile is the blame breakdown of one run phase ("init",
// "epoch:N", "term", or "run" when no marks were recorded).
type PhaseProfile struct {
	Phase        string          `json:"phase"`
	StartSeconds float64         `json:"start_seconds"`
	EndSeconds   float64         `json:"end_seconds"`
	Categories   []CategoryTotal `json:"categories"`
}

// WindowProfile is the blame breakdown inside one marked window (a
// fault-injection interval).
type WindowProfile struct {
	Name         string          `json:"name"`
	StartSeconds float64         `json:"start_seconds"`
	EndSeconds   float64         `json:"end_seconds"`
	Categories   []CategoryTotal `json:"categories"`
}

// WaitEdge is one aggregated vclock-level wait-for edge.
type WaitEdge struct {
	Proc    string  `json:"proc"`
	Kind    string  `json:"kind"`
	Label   string  `json:"label,omitempty"`
	Count   int64   `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Profile is the analyzed critical path of one run.
type Profile struct {
	SchemaVersion   int     `json:"schema_version"`
	Label           string  `json:"label,omitempty"`
	MakespanSeconds float64 `json:"makespan_seconds"`
	// Coverage is the fraction of the makespan attributed to a typed
	// cause (1 − unattributed share).
	Coverage    float64         `json:"coverage"`
	Categories  []CategoryTotal `json:"categories"`
	Attribution []AttrRow       `json:"attribution"`
	Segments    []Segment       `json:"segments"`
	Phases      []PhaseProfile  `json:"phases"`
	Windows     []WindowProfile `json:"windows,omitempty"`
	WaitGraph   []WaitEdge      `json:"wait_graph,omitempty"`
}

// CategorySeconds returns the named category's attributed seconds (0
// when absent).
func (p *Profile) CategorySeconds(c Cause) float64 {
	for _, ct := range p.Categories {
		if ct.Cause == c {
			return ct.Seconds
		}
	}
	return 0
}

// CategoryShare returns the named category's share of the makespan.
func (p *Profile) CategoryShare(c Cause) float64 {
	for _, ct := range p.Categories {
		if ct.Cause == c {
			return ct.Share
		}
	}
	return 0
}

// TopCause returns the category with the largest attributed time
// (Unattributed excluded); empty for an empty profile.
func (p *Profile) TopCause() Cause {
	for _, ct := range p.Categories {
		if ct.Cause != Unattributed {
			return ct.Cause
		}
	}
	return ""
}

// span is one attributed elementary interval of the critical path.
type span struct {
	start, end time.Duration
	cause      Cause
	sub        string
	track      string
}

// Profile analyzes the recorded edges into a blame profile. label tags
// the output (e.g. "vpic sync").
func (r *Recorder) Profile(label string) *Profile {
	if r == nil {
		return &Profile{SchemaVersion: SchemaVersion, Label: label}
	}
	r.mu.Lock()
	edges := append([]Edge(nil), r.edges...)
	marks := append([]mark(nil), r.marks...)
	windows := append([]WindowMark(nil), r.windows...)
	makespan := r.makespan
	waits := make(map[waitKey]waitAgg, len(r.waits))
	for k, v := range r.waits {
		waits[k] = *v
	}
	r.mu.Unlock()

	sortEdges(edges)
	for _, e := range edges {
		if e.End > makespan {
			makespan = e.End
		}
	}
	for _, m := range marks {
		if m.at > makespan {
			makespan = m.at
		}
	}

	p := &Profile{SchemaVersion: SchemaVersion, Label: label,
		MakespanSeconds: makespan.Seconds()}
	if makespan <= 0 {
		p.Coverage = 1
		return p
	}

	segs := segments(edges, makespan)
	byTrack := edgesByTrack(edges)

	// Attribute every segment on its critical track, collecting the
	// elementary spans for exact phase/window folding.
	var spans []span
	catTotal := map[Cause]time.Duration{}
	attr := map[AttrRow]time.Duration{}
	for i := range segs {
		ss := sweep(byTrack[segs[i].track], segs[i].start, segs[i].end, segs[i].track)
		var top Cause
		segCat := map[Cause]time.Duration{}
		for _, s := range ss {
			d := s.end - s.start
			catTotal[s.cause] += d
			segCat[s.cause] += d
			attr[AttrRow{Cause: s.cause, Subsystem: s.sub, Track: s.track}] += d
		}
		top = topCause(segCat)
		p.Segments = append(p.Segments, Segment{
			StartSeconds: segs[i].start.Seconds(),
			EndSeconds:   segs[i].end.Seconds(),
			Track:        segs[i].track,
			TopCause:     top,
		})
		spans = append(spans, ss...)
	}

	p.Categories = categoryTotals(catTotal, makespan)
	p.Coverage = 1 - durationOf(catTotal, Unattributed).Seconds()/makespan.Seconds()

	rows := make([]AttrRow, 0, len(attr))
	for k, d := range attr {
		k.Seconds = d.Seconds()
		rows = append(rows, k)
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Cause != b.Cause {
			return a.Cause < b.Cause
		}
		if a.Subsystem != b.Subsystem {
			return a.Subsystem < b.Subsystem
		}
		return trackLess(a.Track, b.Track)
	})
	p.Attribution = rows

	p.Phases = foldPhases(spans, marks, makespan)
	p.Windows = foldWindows(spans, windows, makespan)
	p.WaitGraph = waitGraph(waits)
	return p
}

// seg is an internal critical-path segment.
type seg struct {
	start, end time.Duration
	track      string
}

// segments derives the critical-path segments from the root-world
// collective edges; without any, the whole run is one segment whose
// track holds the latest-ending edge.
func segments(edges []Edge, makespan time.Duration) []seg {
	type group struct {
		resolve time.Duration
		enter   time.Duration
		track   string
	}
	groups := map[string]*group{}
	for _, e := range edges {
		if e.Subsystem != "mpi" || !strings.HasPrefix(e.Detail, collPrefix) {
			continue
		}
		g := groups[e.Detail]
		if g == nil {
			g = &group{enter: -1}
			groups[e.Detail] = g
		}
		if e.End > g.resolve {
			g.resolve = e.End
		}
		// Critical rank: latest arrival; ties go to the lowest track so
		// the choice is a pure function of the edge multiset.
		if e.Start > g.enter || (e.Start == g.enter && trackLess(e.Track, g.track)) {
			g.enter = e.Start
			g.track = e.Track
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys) // zero-padded "coll:%08d" sorts in sequence order
	var out []seg
	prev := time.Duration(0)
	for _, k := range keys {
		g := groups[k]
		if g.resolve <= prev {
			continue // zero-length window (several collectives at one instant)
		}
		out = append(out, seg{start: prev, end: g.resolve, track: g.track})
		prev = g.resolve
	}
	if prev < makespan {
		out = append(out, seg{start: prev, end: makespan, track: tailTrack(edges, prev, out)})
	}
	return out
}

// tailTrack picks the critical track for the final (post-collective)
// segment: the track whose edges end latest inside it, falling back to
// the previous segment's track.
func tailTrack(edges []Edge, from time.Duration, prev []seg) string {
	var best string
	var bestEnd time.Duration = -1
	for _, e := range edges {
		if e.End <= from {
			continue
		}
		if e.End > bestEnd || (e.End == bestEnd && trackLess(e.Track, best)) {
			bestEnd = e.End
			best = e.Track
		}
	}
	if best != "" {
		return best
	}
	if n := len(prev); n > 0 {
		return prev[n-1].track
	}
	return ""
}

// edgesByTrack indexes non-rendezvous attribution edges per track.
// Collective rendezvous edges are included too — their cause is
// CollectiveWait, which is exactly the blame they carry.
func edgesByTrack(edges []Edge) map[string][]Edge {
	out := map[string][]Edge{}
	for _, e := range edges {
		if e.End <= e.Start {
			continue // zero-length rendezvous entries carry no time
		}
		out[e.Track] = append(out[e.Track], e)
	}
	return out
}

// sweep attributes (a, b] on one track: elementary intervals between
// edge boundaries, each blamed on the highest-precedence covering edge,
// gaps blamed Unattributed. Edges arrive canonically sorted.
func sweep(edges []Edge, a, b time.Duration, track string) []span {
	type clipped struct {
		start, end time.Duration
		cause      Cause
		sub        string
	}
	var cs []clipped
	points := []time.Duration{a, b}
	for _, e := range edges {
		if e.End <= a || e.Start >= b {
			continue
		}
		s, t := e.Start, e.End
		if s < a {
			s = a
		}
		if t > b {
			t = b
		}
		cs = append(cs, clipped{start: s, end: t, cause: e.Cause, sub: e.Subsystem})
		points = append(points, s, t)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	var out []span
	emit := func(s span) {
		if n := len(out); n > 0 && out[n-1].cause == s.cause && out[n-1].sub == s.sub && out[n-1].end == s.start {
			out[n-1].end = s.end
			return
		}
		out = append(out, s)
	}
	for i := 0; i+1 < len(points); i++ {
		lo, hi := points[i], points[i+1]
		if hi <= lo {
			continue
		}
		best := clipped{cause: Unattributed}
		bestPrec := -1
		for _, c := range cs {
			if c.start > lo || c.end < hi {
				continue
			}
			prec := precedenceOf(c.cause)
			if prec > bestPrec ||
				(prec == bestPrec && (c.cause < best.cause || (c.cause == best.cause && c.sub < best.sub))) {
				best = c
				bestPrec = prec
			}
		}
		emit(span{start: lo, end: hi, cause: best.cause, sub: best.sub, track: track})
	}
	return out
}

// categoryTotals renders a cause→duration map as sorted totals,
// largest first (ties by cause name).
func categoryTotals(m map[Cause]time.Duration, total time.Duration) []CategoryTotal {
	out := make([]CategoryTotal, 0, len(m))
	for c, d := range m {
		out = append(out, CategoryTotal{Cause: c, Seconds: d.Seconds(),
			Share: float64(d) / float64(total)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Cause < out[j].Cause
	})
	return out
}

func durationOf(m map[Cause]time.Duration, c Cause) time.Duration { return m[c] }

// topCause returns the largest non-Unattributed cause of an interval
// (falling back to Unattributed when nothing else was present).
func topCause(m map[Cause]time.Duration) Cause {
	var best Cause = Unattributed
	var bestD time.Duration = -1
	for c, d := range m {
		if c == Unattributed {
			continue
		}
		if d > bestD || (d == bestD && c < best) {
			best, bestD = c, d
		}
	}
	if bestD < 0 {
		return Unattributed
	}
	return best
}

// foldPhases splits the attributed spans across the run's phase
// boundaries: init up to the init mark, one phase per epoch commit,
// term after the last commit. Spans straddling a boundary contribute
// their exact overlap to each side.
func foldPhases(spans []span, marks []mark, makespan time.Duration) []PhaseProfile {
	type phase struct {
		name       string
		start, end time.Duration
	}
	var phases []phase
	sort.SliceStable(marks, func(i, j int) bool {
		if marks[i].at != marks[j].at {
			return marks[i].at < marks[j].at
		}
		return marks[i].epoch < marks[j].epoch
	})
	prev := time.Duration(0)
	for _, m := range marks {
		if m.at <= prev {
			continue
		}
		name := fmt.Sprintf("epoch:%d", m.epoch)
		if m.epoch < 0 {
			name = "init"
		}
		phases = append(phases, phase{name: name, start: prev, end: m.at})
		prev = m.at
	}
	if len(phases) == 0 {
		phases = append(phases, phase{name: "run", start: 0, end: makespan})
	} else if prev < makespan {
		phases = append(phases, phase{name: "term", start: prev, end: makespan})
	}
	out := make([]PhaseProfile, len(phases))
	for i, ph := range phases {
		cat := map[Cause]time.Duration{}
		for _, s := range spans {
			if ov := overlap(s.start, s.end, ph.start, ph.end); ov > 0 {
				cat[s.cause] += ov
			}
		}
		out[i] = PhaseProfile{Phase: ph.name, StartSeconds: ph.start.Seconds(),
			EndSeconds: ph.end.Seconds(), Categories: categoryTotals(cat, ph.end-ph.start)}
	}
	return out
}

// foldWindows computes each marked window's blame breakdown.
func foldWindows(spans []span, windows []WindowMark, makespan time.Duration) []WindowProfile {
	sort.SliceStable(windows, func(i, j int) bool {
		if windows[i].Start != windows[j].Start {
			return windows[i].Start < windows[j].Start
		}
		return windows[i].Name < windows[j].Name
	})
	var out []WindowProfile
	for _, w := range windows {
		end := w.End
		if end == 0 || end > makespan {
			end = makespan
		}
		if end <= w.Start {
			continue
		}
		cat := map[Cause]time.Duration{}
		for _, s := range spans {
			if ov := overlap(s.start, s.end, w.Start, end); ov > 0 {
				cat[s.cause] += ov
			}
		}
		out = append(out, WindowProfile{Name: w.Name, StartSeconds: w.Start.Seconds(),
			EndSeconds: end.Seconds(), Categories: categoryTotals(cat, end-w.Start)})
	}
	return out
}

// overlap returns the length of the intersection of [a1,a2) and [b1,b2).
func overlap(a1, a2, b1, b2 time.Duration) time.Duration {
	lo, hi := a1, a2
	if b1 > lo {
		lo = b1
	}
	if b2 < hi {
		hi = b2
	}
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// waitGraph renders the aggregated vclock wait-for edges sorted by
// (proc, kind, label).
func waitGraph(waits map[waitKey]waitAgg) []WaitEdge {
	out := make([]WaitEdge, 0, len(waits))
	for k, v := range waits {
		out = append(out, WaitEdge{Proc: k.proc, Kind: k.kind, Label: k.label,
			Count: v.count, Seconds: v.total.Seconds()})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Proc != b.Proc {
			return trackLess(a.Proc, b.Proc)
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Label < b.Label
	})
	return out
}
