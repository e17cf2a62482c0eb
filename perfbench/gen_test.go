package main

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func coldSequence(seed int64, n int) []string {
	p := newColdPlan(seed)
	var out []string
	for i := 0; i < n; i++ {
		rq := p.next()
		out = append(out, string(rq.spec.body(rq.tenant))+" "+rq.format)
	}
	return out
}

func TestColdPlanDeterministicPerSeed(t *testing.T) {
	a, b := coldSequence(7, 200), coldSequence(7, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different cold traffic")
	}
	if reflect.DeepEqual(a, coldSequence(8, 200)) {
		t.Fatal("different seeds generated identical cold traffic")
	}
	heavy := 0
	for _, rq := range a {
		if strings.Contains(rq, `"sweep"`) {
			heavy++
		}
	}
	if want := len(a) / (lightPerHeavy + 1); heavy != want {
		t.Errorf("%d heavy sweeps in %d requests, want %d", heavy, len(a), want)
	}
}

// TestColdPlanNeverRepeats: cold traffic must never hit the point
// cache, so no two specs may share content.
func TestColdPlanNeverRepeats(t *testing.T) {
	p := newColdPlan(3)
	seen := map[string]bool{}
	for i := 0; i < 2000; i++ {
		rq := p.next()
		c := rq.spec.content()
		if seen[c] {
			t.Fatalf("request %d repeats content %s", i, c)
		}
		seen[c] = true
	}
}

// TestRunDeckBalanced: every deck holds each factor level equally
// often, whatever the seed, so seeds differ in specs but not in mix.
func TestRunDeckBalanced(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		var id int64
		deck := runDeck(newRand(seed, 9), []int{1, 2, 4, 8, 16, 32}, int(seed), &id)
		count := map[string]int{}
		for _, s := range deck {
			count["w="+s.Workload]++
			count["s="+s.System]++
			count[fmt.Sprint("n=", s.Nodes)]++
			count["m="+s.Mode]++
			count[fmt.Sprint("t=", s.Steps)]++
			if s.ComputeSeconds < 1 || s.ComputeSeconds >= 60 {
				t.Errorf("compute_seconds %g outside [1, 60)", s.ComputeSeconds)
			}
		}
		want := map[string]int{"w=": 12, "s=": 30, "n=": 10, "m=": 20, "t=": 15}
		for k, n := range count {
			if want[k[:2]] != n {
				t.Errorf("seed %d: %s appears %d times, want %d", seed, k, n, want[k[:2]])
			}
		}
	}
}

func hotSequence(seed int64) []string {
	set := newHotSet(seed, []string{"fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b", "fig4c", "fig4d", "fig5", "fig6"})
	p := newHotPlan(seed, set)
	var out []string
	add := func(rq request) { out = append(out, rq.phase+" "+string(rq.spec.body(rq.tenant))+" "+rq.format) }
	for c := 0; c < 2; c++ {
		for _, rq := range p.storePhase() {
			add(rq)
		}
		for i := 0; i < 500; i++ {
			add(p.lru())
		}
	}
	return out
}

func TestHotPlanDeterministicPerSeed(t *testing.T) {
	a := hotSequence(5)
	if !reflect.DeepEqual(a, hotSequence(5)) {
		t.Fatal("same seed generated different hot traffic")
	}
	if reflect.DeepEqual(a, hotSequence(6)) {
		t.Fatal("different seeds generated identical hot traffic")
	}
}

// TestHotPlanPairsUnique: an identical (tenant, spec) pair would be
// served from the campaign table, bypassing the cache and the store.
func TestHotPlanPairsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, line := range hotSequence(9) {
		if seen[line] {
			t.Fatalf("repeated request %s", line)
		}
		seen[line] = true
	}
}

// TestHotSubsetRanks: every seed puts a sweep at the same Zipf ranks,
// and the subset covers the sweeps and exactly the first run deck.
func TestHotSubsetRanks(t *testing.T) {
	sweeps := []string{"fig3a", "fig3b", "fig3c", "fig3d", "fig4a", "fig4b", "fig4c", "fig4d", "fig5", "fig6"}
	var ranks []int
	for seed := int64(1); seed <= 4; seed++ {
		set := newHotSet(seed, sweeps)
		var r []int
		for rank, k := range set.subset {
			if set.specs[k].kind() == "sweep" {
				r = append(r, rank)
			}
		}
		if ranks == nil {
			ranks = r
		} else if !slices.Equal(r, ranks) {
			t.Fatalf("seed %d: sweeps at ranks %v, seed 1 at %v", seed, r, ranks)
		}
		sorted := slices.Sorted(slices.Values(set.subset))
		for i, k := range sorted {
			if k != i {
				t.Fatalf("seed %d: subset is not the sweeps plus the first deck: %v", seed, sorted)
			}
		}
	}
	if len(ranks) != len(sweeps) {
		t.Fatalf("%d sweeps ranked, want %d", len(ranks), len(sweeps))
	}
}

func TestFiguresOrder(t *testing.T) {
	ids := []string{"a", "b", "c", "d", "e", "f"}
	passes := func(seed int64) [][]string {
		next := figuresOrder(seed, ids)
		return [][]string{next(), next(), next()}
	}
	a := passes(1)
	if !reflect.DeepEqual(a, passes(1)) {
		t.Fatal("same seed, different order")
	}
	if reflect.DeepEqual(a, passes(2)) {
		t.Fatal("different seeds, same order")
	}
	for _, pass := range a {
		if !slices.Equal(slices.Sorted(slices.Values(pass)), ids) {
			t.Fatalf("pass %v is not a permutation of %v", pass, ids)
		}
	}
}
