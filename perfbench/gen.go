package main

// Seeded traffic generators. The seed is a benchmark argument; the
// program under test sees only the specs generated from it. Run specs
// come in decks that hold every (workload, system, nodes) combination
// once. The seed orders each deck and draws the values that set a
// spec's content but not its cost class (compute phase, fault and
// durability seeds), so different seeds send different specs in a
// different order while every seed sends the same mix of costs, which
// keeps run-to-run spread low.

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"strings"
)

// heldOutSeed is the seed a performance claim must also pass on, in
// addition to the seeds it was developed against.
const heldOutSeed = 7919

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// specJSON is the wire form of a scenario spec, as a service client
// writes it.
type specJSON struct {
	Tenant         string  `json:"tenant,omitempty"`
	Sweep          string  `json:"sweep,omitempty"`
	Workload       string  `json:"workload,omitempty"`
	System         string  `json:"system,omitempty"`
	Nodes          int     `json:"nodes,omitempty"`
	Mode           string  `json:"mode,omitempty"`
	Steps          int     `json:"steps,omitempty"`
	ComputeSeconds float64 `json:"compute_seconds,omitempty"`
	DurabilitySeed int64   `json:"durability_seed,omitempty"`
	Faults         string  `json:"faults,omitempty"`
}

func (s specJSON) kind() string {
	if s.Sweep != "" {
		return "sweep"
	}
	return "run"
}

// body renders the spec for one tenant.
func (s specJSON) body(tenant string) []byte {
	s.Tenant = tenant
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a struct of strings and numbers always marshals
	}
	return b
}

// content names the spec without its tenant: equal content, equal bytes.
func (s specJSON) content() string { return string(s.body("")) }

// request is one planned service call.
type request struct {
	phase  string
	tenant string
	spec   specJSON
	format string // the ?wait= result format
}

// figuresOrder returns a generator of each pass's experiment order.
func figuresOrder(seed int64, ids []string) func() []string {
	r := newRand(seed, 1)
	return func() []string {
		order := append([]string(nil), ids...)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return order
	}
}

var (
	runWorkloads = []string{"vpic", "bdcats", "nyx", "castro", "eqsim"}
	runSystems   = []string{"summit", "cori"}
	runModes     = []string{"sync", "async", "adaptive"}
	runSteps     = []int{1, 2, 3, 4}
)

// runDeck returns one deck of run specs in deck order: every
// (workload, system, nodes) combination once, with modes and step
// counts dealt round-robin and rotated by the deck number. The seed
// draws each spec's compute phase; every spec also gets a distinct
// durability seed, so no two share a point cache key even when all
// simulated factors coincide (the durability model only acts on
// crash-instrumented runs, so it leaves the simulation unchanged).
func runDeck(r *rand.Rand, nodes []int, deckNo int, nextID *int64) []specJSON {
	var out []specJSON
	for _, w := range runWorkloads {
		for _, s := range runSystems {
			for _, n := range nodes {
				i := len(out)
				*nextID++
				out = append(out, specJSON{
					Workload: w, System: s, Nodes: n,
					Mode:           runModes[(i+deckNo)%len(runModes)],
					Steps:          runSteps[(i/len(runModes)+deckNo)%len(runSteps)],
					ComputeSeconds: float64(1000+r.IntN(59000)) / 1000,
					DurabilitySeed: *nextID,
				})
			}
		}
	}
	return out
}

// coldSweep is the reduced-scale sweep the heavy tenant submits: 8
// points, about 0.2 s of serial compute. One figure keeps every heavy
// request the same cost.
const coldSweep = "fig5"

// coldNodes are the node counts of the light tenant's run decks.
var coldNodes = []int{1, 2, 4, 8, 16, 32}

// coldPlan is the service-cold traffic: the heavy tenant's sweeps and
// the light tenant's run specs, each an endless seeded sequence with no
// repeated content.
type coldPlan struct {
	r      *rand.Rand
	nextID int64
	decks  int
	lightQ []specJSON
	n      int // requests sent by next
}

func newColdPlan(seed int64) *coldPlan {
	return &coldPlan{r: newRand(seed, 2), nextID: seed * 1_000_000}
}

// lightPerHeavy is how many light run specs the plan sends per heavy
// sweep.
const lightPerHeavy = 2

// next returns the plan's next request: the two tenants' streams
// interleaved, one heavy sweep after every lightPerHeavy light runs.
// Both closed-loop clients take from this one sequence, so neither
// tenant's share of the workers depends on which client is faster.
func (p *coldPlan) next() request {
	p.n++
	if p.n%(lightPerHeavy+1) == 0 {
		return p.heavy()
	}
	return p.light()
}

// heavy returns the heavy tenant's next sweep, under a fault schedule
// whose seed never repeats.
func (p *coldPlan) heavy() request {
	p.nextID++
	return request{phase: "heavy", tenant: "heavy", format: "table",
		spec: specJSON{Sweep: coldSweep, Faults: fmt.Sprintf("seed=%d;err=gpfs:0.01", p.nextID)}}
}

// light returns the light tenant's next run spec, fetched as Perfetto.
// Each deck is served in a seeded order.
func (p *coldPlan) light() request {
	if len(p.lightQ) == 0 {
		p.lightQ = runDeck(p.r, coldNodes, p.decks, &p.nextID)
		p.decks++
		p.r.Shuffle(len(p.lightQ), func(a, b int) { p.lightQ[a], p.lightQ[b] = p.lightQ[b], p.lightQ[a] })
	}
	s := p.lightQ[0]
	p.lightQ = p.lightQ[1:]
	return request{phase: "light", tenant: "light", spec: s, format: "perfetto"}
}

// hotSet is service-hot's working set: the default-knob sweeps plus two
// decks of run specs whose bundles span tens of KB to about a megabyte.
// The sweeps and the first deck are the LRU phase's subset; the second
// deck only makes the store (and its recovery scan) larger.
type hotSet struct {
	specs  []specJSON
	subset []int // indexes of the LRU-phase specs, in Zipf rank order
}

// hotNodes are the node counts of the working set's run decks.
var hotNodes = []int{1, 2, 4, 8}

// Zipf ranks of the LRU-phase subset: a sweep at every sweepEvery-th
// rank, first-deck runs at the others, taken in deck order with stride
// runStride (coprime with the deck size) so that workloads and node
// counts spread evenly over popularity. The seed only orders the
// sweeps, whose tables cost alike.
const (
	sweepEvery = 5
	runStride  = 17
)

func newHotSet(seed int64, sweeps []string) *hotSet {
	r := newRand(seed, 3)
	next := seed * 1_000_000
	h := &hotSet{}
	for _, id := range sweeps {
		h.specs = append(h.specs, specJSON{Sweep: id})
	}
	h.specs = append(h.specs, runDeck(r, hotNodes, 0, &next)...)
	deck := len(h.specs) - len(sweeps)
	h.specs = append(h.specs, runDeck(r, hotNodes, 1, &next)...)

	sw := r.Perm(len(sweeps))
	for rank, run := 0, 0; len(sw) > 0 || run < deck; rank++ {
		if rank%sweepEvery == sweepEvery/2 && len(sw) > 0 || run == deck {
			h.subset, sw = append(h.subset, sw[0]), sw[1:]
		} else {
			h.subset = append(h.subset, len(sweeps)+run*runStride%deck)
			run++
		}
	}
	return h
}

// largestRank is the Zipf rank the working set's largest bundle is
// moved to: popular enough (about 5% of requests) that the LRU-hit tail
// falls inside that key's own latency distribution, not on the cliff
// between it and the next key class, where it would jump between runs.
const largestRank = 3

// promoteLargest moves the subset spec with the largest Perfetto
// artifact (a proxy for its bundle, which every run-spec hit decodes
// whole) to largestRank, given the sizes the fill served.
func (h *hotSet) promoteLargest(perfettoSize map[string]int) {
	best := -1
	for rank, k := range h.subset {
		if best < 0 || perfettoSize[h.specs[k].content()] > perfettoSize[h.specs[h.subset[best]].content()] {
			best = rank
		}
	}
	h.subset[best], h.subset[largestRank] = h.subset[largestRank], h.subset[best]
}

// formatFor is the result format request i asks for: the table for a
// sweep; for a run, the Perfetto artifact half of the time (the largest
// artifact) and the summary or metrics CSV otherwise.
func formatFor(s specJSON, i int) string {
	if s.kind() == "sweep" {
		return "table"
	}
	return [...]string{"perfetto", "summary", "perfetto", "metrics"}[i%4]
}

// hotPlan is service-hot's request sequence after each restart.
type hotPlan struct {
	set   *hotSet
	r     *rand.Rand
	zipf  *rand.Zipf
	uses  []int // requests so far per working-set index (tenant suffix)
	fresh int64
	lruN  int
}

// Zipf parameters of the LRU phase: P(rank k) ∝ (zipfV + k)^-zipfS.
// The offset flattens the head so that no single spec's size sets the
// median.
const (
	zipfS = 1.1
	zipfV = 8
)

// freshEvery makes one LRU-phase request in this many a fresh cheap
// run spec, so store writes run beside the reads.
const freshEvery = 20

func newHotPlan(seed int64, set *hotSet) *hotPlan {
	r := newRand(seed, 4)
	return &hotPlan{
		set: set, r: r,
		zipf:  rand.NewZipf(r, zipfS, zipfV, uint64(len(set.subset)-1)),
		uses:  make([]int, len(set.specs)),
		fresh: seed*1_000_000 + 900_000,
	}
}

// forKey builds a request for working-set entry k. Each request for the
// same spec comes from a new tenant: an identical (tenant, spec) pair
// would be answered from the server's campaign table and never reach
// the point cache.
func (p *hotPlan) forKey(phase string, k int) request {
	p.uses[k]++
	s := p.set.specs[k]
	return request{phase: phase, tenant: fmt.Sprintf("u%d", p.uses[k]), spec: s, format: formatFor(s, p.uses[k])}
}

// storePhase touches every working-set key once, in a seeded order.
func (p *hotPlan) storePhase() []request {
	out := make([]request, 0, len(p.set.specs))
	for _, k := range p.r.Perm(len(p.set.specs)) {
		out = append(out, p.forKey("store", k))
	}
	return out
}

// lru returns the next LRU-phase request: a Zipf draw over the subset,
// or every freshEvery-th request a never-seen cheap run spec.
func (p *hotPlan) lru() request {
	p.lruN++
	if p.lruN%freshEvery == 0 {
		p.fresh++
		w := [...]string{"vpic", "nyx", "eqsim"}[p.fresh%3]
		return request{phase: "fresh", tenant: "fresh", format: "summary",
			spec: specJSON{Workload: w, System: "summit", Nodes: 1, Steps: 1, DurabilitySeed: p.fresh}}
	}
	return p.forKey("lru", p.set.subset[p.zipf.Uint64()])
}

// mix counts a request sequence by phase, kind, workload, tenant and
// format, for the run header.
type mix map[string]int

func (m mix) add(rq request) {
	m["phase="+rq.phase]++
	m["kind="+rq.spec.kind()]++
	if rq.spec.Workload != "" {
		m["workload="+rq.spec.Workload]++
	} else {
		m["sweep="+rq.spec.Sweep]++
	}
	m["format="+rq.format]++
	m["tenant="+tenantClass(rq.tenant)]++
}

// tenantClass folds the per-request hot tenants ("u17") into one row.
func tenantClass(t string) string {
	if strings.HasPrefix(t, "u") && strings.Trim(t[1:], "0123456789") == "" {
		return "u<n>"
	}
	return t
}

func (m mix) print(w io.Writer, title string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "mix %s:", title)
	for _, k := range keys {
		fmt.Fprintf(w, " %s:%d", k, m[k])
	}
	fmt.Fprintln(w)
}
