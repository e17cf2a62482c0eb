package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// hot serves a working set that an earlier server computed and
// stored: restart on the store, touch every key once (store hits),
// then Zipf traffic over a subset that stays in the LRU.
type hot struct {
	cfg  config
	set  *hotSet
	plan *hotPlan
	ep   *endpoint
	dir  string // the kept store

	manifest map[string]string
	// ref is each (spec content, format)'s digest as first served cold.
	ref map[string]string
	// setupFailures are mismatches found while filling; the first
	// window reports them.
	setupFailures []string

	fresh    []served     // the last window's fresh (cold) specs
	verified []coldServed // those verified by direct computation
}

func newHot(cfg config) *hot {
	set := newHotSet(cfg.seed, sweepIDs())
	return &hot{cfg: cfg, set: set, plan: newHotPlan(cfg.seed, set), ref: make(map[string]string)}
}

func (h *hot) setupReps() int { return 3 }

func refKey(rq request) string { return rq.spec.content() + " " + rq.format }

// fillRequests asks for every working-set spec in every format the
// later phases use; each format comes from its own tenant.
func (h *hot) fillRequests() []request {
	var out []request
	for _, s := range h.set.specs {
		formats := []string{"table"}
		if s.kind() == "run" {
			formats = []string{"perfetto", "summary", "metrics"}
		}
		for _, f := range formats {
			out = append(out, request{phase: "fill", tenant: "fill-" + f, spec: s, format: f})
		}
	}
	return out
}

// setup cold-fills a fresh store with the working set, then closes the
// server so the store is flushed. Only the last fill's store is kept.
func (h *hot) setup(rep int) (time.Duration, error) {
	var err error
	if h.manifest, err = parseManifest(digestManifest); err != nil {
		return 0, err
	}
	dir := filepath.Join(h.cfg.out, fmt.Sprintf("hot-store-%d", rep))
	start := time.Now()
	ep, err := openEndpoint(dir)
	if err != nil {
		return 0, err
	}
	if err := ep.waitReady(); err != nil {
		ep.close()
		return 0, err
	}
	fill := h.fillRequests()
	perfetto := make(map[string]int) // content → Perfetto artifact size
	var mu sync.Mutex
	next := 0
	closedLoop(2, func(_ int, buf *bytes.Buffer) bool {
		mu.Lock()
		if next == len(fill) {
			mu.Unlock()
			return false
		}
		rq := fill[next]
		next++
		mu.Unlock()
		r, err := ep.submit(rq, buf)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			h.setupFailures = append(h.setupFailures, fmt.Sprintf("fill %s: %v", refKey(rq), err))
			return true
		}
		d := digest(r.body)
		if want, ok := h.ref[refKey(rq)]; ok && d != want {
			h.setupFailures = append(h.setupFailures, fmt.Sprintf("fill %s: differs from an earlier cold fill", refKey(rq)))
		}
		if rq.spec.kind() == "sweep" && d != h.manifest[rq.spec.Sweep] {
			h.setupFailures = append(h.setupFailures, fmt.Sprintf("fill %s: table differs from the figures digest manifest", refKey(rq)))
		}
		h.ref[refKey(rq)] = d
		if rq.format == "perfetto" {
			perfetto[rq.spec.content()] = len(r.body)
		}
		return true
	})
	elapsed := time.Since(start)
	h.set.promoteLargest(perfetto)
	if err := ep.close(); err != nil {
		return 0, err
	}
	if h.dir != "" {
		if err := os.RemoveAll(h.dir); err != nil {
			return 0, err
		}
	}
	h.dir = dir
	return elapsed, nil
}

func (h *hot) printMix() {
	m := mix{}
	for _, rq := range h.fillRequests() {
		m.add(rq)
	}
	m.print(os.Stdout, fmt.Sprintf("planned set-up fill (%d specs)", len(h.set.specs)))
	preview := newHotPlan(h.cfg.seed, h.set)
	m = mix{}
	for _, rq := range preview.storePhase() {
		m.add(rq)
	}
	for i := 0; i < lruPerCycle; i++ {
		m.add(preview.lru())
	}
	m.print(os.Stdout, fmt.Sprintf("planned first cycle (restart; store phase; %d LRU-phase requests, Zipf over %d specs; 2 closed-loop clients)",
		lruPerCycle, len(h.set.subset)))
}

// restart reopens the kept store in a new server and times it until
// /readyz answers 200.
func (h *hot) restart(w *window) error {
	start := time.Now()
	ep, err := openEndpoint(h.dir)
	if err != nil {
		return err
	}
	h.ep = ep
	if err := ep.waitReady(); err != nil {
		return err
	}
	d := time.Since(start)
	w.record("restart", d)
	w.spans.add("server", "restart", start, d)
	return nil
}

// Each cycle of a window restarts the server on the store, touches
// every working-set key once, then sends lruPerCycle LRU-phase
// requests. A window runs cyclesPerSecond cycles per measured second
// (about one cycle per second on a 2-core machine), at least minCycles.
// The request count is fixed rather than the time, so every run reports
// its tails at the same percentile.
const (
	minCycles       = 3
	cyclesPerSecond = 0.9
	lruPerCycle     = 400
)

func (h *hot) measure(seconds float64, spans *spanLog) (*window, error) {
	w := beginWindow(spans)
	for _, f := range h.setupFailures {
		w.fail("%s", f)
	}
	h.setupFailures = nil
	var fresh []served
	cycles := max(minCycles, int(seconds*cyclesPerSecond))
	for c := 0; c < cycles; c++ {
		if err := h.close(); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := h.restart(w); err != nil {
			return nil, err
		}
		h.drive(w, h.plan.storePhase())
		w.record("restart_store", time.Since(start))

		lru := make([]request, lruPerCycle)
		for i := range lru {
			lru[i] = h.plan.lru()
		}
		lruStart := time.Now()
		fresh = append(fresh, h.drive(w, lru)...)
		w.record("lru_phase", time.Since(lruStart))
	}
	w.end()
	h.fresh = fresh
	return w, nil
}

// verify recomputes fresh specs in-process and checks the served bytes
// against them: up to 40 in a traced window (which also yields compute
// times), otherwise 3.
func (h *hot) verify(w *window, traced bool) {
	checks := 3
	if traced {
		checks = 40
	}
	h.verified = h.verified[:0]
	for _, s := range h.fresh[:min(checks, len(h.fresh))] {
		if compute, ok := verifyDirect(w, s.rq, s.digest); ok {
			h.verified = append(h.verified, coldServed{served: s.total, compute: compute})
		}
	}
}

// drive sends reqs through 2 closed-loop clients. Bodies of working-set
// specs must match their cold fill; it returns the fresh specs served.
func (h *hot) drive(w *window, reqs []request) []served {
	var mu sync.Mutex
	var fresh []served
	closedLoop(2, func(client int, buf *bytes.Buffer) bool {
		mu.Lock()
		if len(reqs) == 0 {
			mu.Unlock()
			return false
		}
		rq := reqs[0]
		reqs = reqs[1:]
		mu.Unlock()
		want := ""
		if rq.phase != "fresh" {
			want = h.ref[refKey(rq)]
		}
		d, r := h.ep.call(w, rq, rq.phase, fmt.Sprintf("client-%d", client), want, buf)
		if rq.phase != "store" {
			w.units.Add(1)
		}
		if rq.phase == "fresh" && d != "" {
			mu.Lock()
			fresh = append(fresh, served{rq, d, r.total})
			mu.Unlock()
		}
		return true
	})
	return fresh
}

func (h *hot) endToEnd(w *window) map[string]metric {
	cycle := median(w.samples("restart_store")) / 1000
	restarts := w.samples("restart")
	reportf("restart_s", median(restarts)/1000, "s", "median of %d restarts", len(restarts))
	reportf("restart_store_s", cycle, "s", "restart plus one store hit per key (%d keys)", len(h.set.specs))
	tailReport("store_hit", w.samples("store"))
	p50, t := tailReport("lru_hit", w.samples("lru"))
	reportf("req_per_s", h.throughput(w), "req/s", "LRU phase, %d requests (1 in %d fresh)", w.units.Load(), freshEvery)
	reportf("allocs_per_req", ratio(float64(w.allocs), float64(w.attempted)), "allocs/req", "%d allocs, %d requests", w.allocs, w.attempted)
	return map[string]metric{
		"wall_s":        {cycle, "s"},
		"p50_ms":        {p50, "ms"},
		"tail_ms":       {t, "ms"},
		"throughput":    {h.throughput(w), "1/s"},
		"allocs_per_op": {ratio(float64(w.allocs), float64(w.attempted)), "allocs/op"},
		"heap_mb":       w.heap(),
	}
}

// throughput is the LRU phases' completed requests per second.
func (h *hot) throughput(w *window) float64 {
	var sec float64
	for _, p := range w.samples("lru_phase") {
		sec += p / 1000
	}
	return ratio(float64(w.units.Load()), sec)
}

func (h *hot) opsForAllocs(w *window) float64 { return float64(w.attempted) }

// layer reports the last server's counters (it served the last store
// phase and the LRU phase) and the verified fresh specs' compute times.
func (h *hot) layer(w *window, out map[string]metric) error {
	if err := serviceLayer(out, h.ep, nil, h.verified); err != nil {
		return err
	}
	out["vclock.events"] = metric{float64(w.events), "count"}
	return nil
}

func (h *hot) close() error {
	if h.ep == nil {
		return nil
	}
	err := h.ep.close()
	h.ep = nil
	return err
}
