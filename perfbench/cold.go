package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// cold drives a fresh campaign server with only never-seen specs: the
// heavy tenant's faulted sweeps and the light tenant's run specs, one
// closed-loop client each.
type cold struct {
	cfg  config
	plan *coldPlan
	ep   *endpoint

	// Of the last window: its /metricz counters at the start (traced
	// windows only), the requests it served, and the light runs verified
	// by direct computation.
	before       map[string]float64
	light, heavy []served
	verified     []coldServed
}

func newCold(cfg config) *cold { return &cold{cfg: cfg, plan: newColdPlan(cfg.seed)} }

func (c *cold) setupReps() int { return 9 }

// warmup is served during set-up, so that the first timed request does
// not pay for connection set-up and first-use code paths. The light
// tenant never draws a compute phase below one second, so warm-up
// content never repeats in the timed traffic.
var warmup = request{phase: "warmup", tenant: "warmup", format: "summary",
	spec: specJSON{Workload: "vpic", System: "summit", Nodes: 1, Steps: 1, ComputeSeconds: 0.5}}

// setup opens a server on an empty store, waits until it is ready and
// serves the warm-up request.
func (c *cold) setup(rep int) (time.Duration, error) {
	if err := c.close(); err != nil {
		return 0, err
	}
	dir := filepath.Join(c.cfg.out, fmt.Sprintf("cold-store-%d", rep))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	start := time.Now()
	ep, err := openEndpoint(dir)
	if err != nil {
		return 0, err
	}
	c.ep = ep
	if err := ep.waitReady(); err != nil {
		return 0, err
	}
	if _, err := ep.submit(warmup, new(bytes.Buffer)); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return time.Since(start), nil
}

// A window serves lightDecksPerSecond decks of light run specs per
// measured second (about one deck per 7 s on a 2-core machine), at least
// one, with their interleaved heavy sweeps. The request count is fixed
// rather than the time, so every run serves the same mix and reports
// its tail at the same percentile.
const lightDecksPerSecond = 0.15

func coldRequests(seconds float64) int {
	decks := max(1, int(seconds*lightDecksPerSecond+0.5))
	return decks * len(runWorkloads) * len(runSystems) * len(coldNodes) * (lightPerHeavy + 1) / lightPerHeavy
}

func (c *cold) printMix() {
	preview := newColdPlan(c.cfg.seed)
	m := mix{}
	n := coldRequests(c.cfg.seconds)
	for i := 0; i < n; i++ {
		m.add(preview.next())
	}
	m.print(os.Stdout, fmt.Sprintf("planned (all %d requests of an untraced window; 2 closed-loop clients sharing one sequence)", n))
}

// served is one request a window completed.
type served struct {
	rq     request
	digest string
	total  time.Duration
}

func (c *cold) measure(seconds float64, spans *spanLog) (*window, error) {
	var before map[string]float64
	if spans != nil {
		var err error
		if before, err = c.ep.counters(); err != nil {
			return nil, err
		}
	}
	var mu sync.Mutex
	var light, heavy []served
	left := coldRequests(seconds)
	w := beginWindow(spans)
	closedLoop(2, func(client int, buf *bytes.Buffer) bool {
		mu.Lock()
		if left == 0 {
			mu.Unlock()
			return false
		}
		left--
		rq := c.plan.next()
		mu.Unlock()
		d, r := c.ep.call(w, rq, rq.phase, fmt.Sprintf("client-%d", client), "", buf)
		if d == "" {
			return true
		}
		mu.Lock()
		if rq.phase == "heavy" {
			heavy = append(heavy, served{rq, d, r.total})
		} else {
			light = append(light, served{rq, d, r.total})
		}
		mu.Unlock()
		return true
	})
	w.end()

	points := len(light)
	if len(heavy) > 0 {
		n, err := pointCount(heavy[0].rq.spec.body(heavy[0].rq.tenant))
		if err != nil {
			return nil, err
		}
		points += n * len(heavy)
	}
	w.units.Store(int64(points))
	c.light, c.heavy = light, heavy
	c.before = before
	return w, nil
}

// verify recomputes served requests in-process and checks the served
// bytes against them: every light run of a traced window (which also
// yields compute times), otherwise a seeded sample, plus one heavy sweep.
func (c *cold) verify(w *window, traced bool) {
	check := c.light
	if !traced {
		r := newRand(c.cfg.seed, 5)
		check = nil
		for i := 0; i < 6 && len(c.light) > 0; i++ {
			check = append(check, c.light[r.IntN(len(c.light))])
		}
	}
	c.verified = c.verified[:0]
	for _, s := range check {
		if compute, ok := verifyDirect(w, s.rq, s.digest); ok {
			c.verified = append(c.verified, coldServed{served: s.total, compute: compute})
		}
	}
	if len(c.heavy) > 0 {
		verifyDirect(w, c.heavy[0].rq, c.heavy[0].digest)
	}
}

func (c *cold) endToEnd(w *window) map[string]metric {
	runs, sweeps := w.samples("light"), w.samples("heavy")
	p50, t := tailReport("run", runs)
	reportf("sweep_p50_ms", median(sweeps), "ms", "n=%d", len(sweeps))
	reportf("points_per_s", c.throughput(w), "points/s", "%d points in %.2f s", w.units.Load(), w.seconds())
	reportf("allocs_per_event", ratio(float64(w.allocs), float64(w.events)), "allocs/event", "%d allocs, %d events", w.allocs, w.events)
	return map[string]metric{
		"wall_s":        {w.seconds(), "s"},
		"p50_ms":        {p50, "ms"},
		"tail_ms":       {t, "ms"},
		"throughput":    {c.throughput(w), "1/s"},
		"allocs_per_op": {ratio(float64(w.allocs), float64(w.events)), "allocs/op"},
		"heap_mb":       w.heap(),
	}
}

// throughput is computed points per second.
func (c *cold) throughput(w *window) float64 { return ratio(float64(w.units.Load()), w.seconds()) }

func (c *cold) opsForAllocs(w *window) float64 { return float64(w.events) }

func (c *cold) layer(w *window, out map[string]metric) error {
	if err := serviceLayer(out, c.ep, c.before, c.verified); err != nil {
		return err
	}
	out["vclock.events"] = metric{float64(w.events), "count"}
	return nil
}

func (c *cold) close() error {
	if c.ep == nil {
		return nil
	}
	err := c.ep.close()
	c.ep = nil
	return err
}
