package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// digests.txt holds "<experiment id> <sha256 of its rendered table>"
// for every registered experiment at reduced scale, default knobs.
//
//go:embed digests.txt
var digestManifest string

// pinnedGoldens are the experiments whose rendered tables must also be
// byte-equal to the simulator's committed golden files.
var pinnedGoldens = []string{"fig3a", "fig3b", "fig5", "fig7"}

// warmupExperiment is regenerated during set-up so that the timed
// passes start with code paged in and the heap grown.
const warmupExperiment = "fig7"

func parseManifest(text string) (map[string]string, error) {
	m := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 {
			return nil, fmt.Errorf("digest manifest: bad line %q", sc.Text())
		}
		m[f[0]] = f[1]
	}
	return m, sc.Err()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// figures regenerates every registered experiment, as
// `asyncio-bench -exp all` does, in a seeded order per pass.
type figures struct {
	cfg      config
	ids      []string
	manifest map[string]string
	goldens  map[string][]byte
	order    func() []string // next pass's experiment order
	perPass  []int64         // simulated events of every pass so far
}

func newFigures(cfg config) *figures { return &figures{cfg: cfg} }

func (f *figures) setupReps() int { return 3 }

func (f *figures) setup(int) (time.Duration, error) {
	start := time.Now()
	err := f.load()
	return time.Since(start), err
}

func (f *figures) load() error {
	var err error
	if f.manifest, err = parseManifest(digestManifest); err != nil {
		return err
	}
	f.ids = experimentIDs()
	f.goldens = make(map[string][]byte)
	for _, id := range pinnedGoldens {
		b, err := os.ReadFile(filepath.Join(f.cfg.repo, "internal", "experiments", "testdata", "golden_"+id+".txt"))
		if err != nil {
			return err
		}
		f.goldens[id] = b
	}
	body, err := renderExperiment(warmupExperiment)
	if err != nil {
		return err
	}
	if msg := f.check(warmupExperiment, body); msg != "" {
		return fmt.Errorf("warm-up: %s", msg)
	}
	f.order = figuresOrder(f.cfg.seed, f.ids)
	return nil
}

// check returns why a rendered table is wrong, or "".
func (f *figures) check(id string, body []byte) string {
	want, ok := f.manifest[id]
	switch {
	case !ok:
		return id + ": not in the digest manifest"
	case digest(body) != want:
		return id + ": rendered table differs from the digest manifest"
	}
	if g, ok := f.goldens[id]; ok && !bytes.Equal(body, g) {
		return id + ": rendered table differs from its golden file"
	}
	return ""
}

func (f *figures) printMix() {
	fmt.Printf("mix planned: experiments per pass:%d (every registered experiment, reduced scale, default knobs), order shuffled per pass by the seed\n",
		len(experimentIDs()))
}

func (f *figures) measure(seconds float64, spans *spanLog) (*window, error) {
	minPasses := 1
	if seconds >= 15 {
		minPasses = 2
	}
	w := beginWindow(spans)
	var last time.Duration
	var perPass []int64
	for p := 0; p < minPasses || time.Since(w.start)+last <= time.Duration(seconds*float64(time.Second)); p++ {
		passStart := time.Now()
		ev0 := simEvents()
		for _, id := range f.order() {
			t0 := time.Now()
			body, err := renderExperiment(id)
			d := time.Since(t0)
			if err != nil {
				w.fail("%v", err)
				continue
			}
			if msg := f.check(id, body); msg != "" {
				w.fail("%s", msg)
				continue
			}
			w.observe("experiment", d)
			w.spans.add("figures", id, t0, d)
		}
		last = time.Since(passStart)
		w.record("pass", last)
		perPass = append(perPass, simEvents()-ev0)
	}
	w.end()
	f.perPass = append(f.perPass, perPass...)
	for _, n := range f.perPass[1:] {
		if n != f.perPass[0] {
			w.fail("simulated events differ between passes: %v", f.perPass)
			break
		}
	}
	return w, nil
}

// verify has nothing left to check: every table was checked as it was
// rendered.
func (f *figures) verify(*window, bool) {}

func (f *figures) endToEnd(w *window) map[string]metric {
	passes := w.samples("pass")
	exps := w.samples("experiment")
	wall := median(passes) / 1000
	var passSec float64
	for _, p := range passes {
		passSec += p / 1000
	}
	p50, t := tailReport("experiment", exps)
	reportf("wall_s", wall, "s", "median of %d passes over %d experiments", len(passes), len(f.ids))
	reportf("allocs_per_event", ratio(float64(w.allocs), float64(w.events)), "allocs/event", "%d allocs, %d events", w.allocs, w.events)
	reportf("vclock.events", float64(f.perPass[0]), "count", "per pass: %d", f.perPass[0])
	return map[string]metric{
		"wall_s":        {wall, "s"},
		"p50_ms":        {p50, "ms"},
		"tail_ms":       {t, "ms"},
		"throughput":    {ratio(float64(w.events), passSec), "1/s"},
		"allocs_per_op": {ratio(float64(w.allocs), float64(w.events)), "allocs/op"},
		"heap_mb":       w.heap(),
	}
}

func (f *figures) throughput(w *window) float64 { return ratio(float64(w.events), w.seconds()) }

func (f *figures) opsForAllocs(w *window) float64 { return float64(w.events) }

func (f *figures) layer(w *window, out map[string]metric) error {
	serviceLayerDefaults(out)
	out["vclock.events"] = metric{float64(f.perPass[len(f.perPass)-1]), "count"}
	return nil
}

func (f *figures) close() error { return nil }
