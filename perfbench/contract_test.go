package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestPerLayerNames: a traced run prints exactly the per-layer metrics
// BENCHMARK.json registers, with the same units.
func TestPerLayerNames(t *testing.T) {
	out := map[string]metric{}
	layerMetrics(out, &cpuShares{layer: map[string]int64{}}, nil, 1)
	serviceLayerDefaults(out)
	out["trace_overhead"] = metric{0, "ratio"}
	doc := loadBenchmarkJSON(t)
	registered := map[string]string{}
	for _, m := range doc.PerLayer {
		registered[m.Name] = m.Unit
	}
	for name, m := range out {
		unit, ok := registered[name]
		if !ok {
			t.Errorf("traced run prints %s, which BENCHMARK.json does not register", name)
		} else if unit != m.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range registered {
		if _, ok := out[name]; !ok {
			t.Errorf("BENCHMARK.json registers %s, which a traced run does not print", name)
		}
	}
}

// TestEndToEndNames: every workload reports every registered
// end-to-end metric (setup_s is added by run).
func TestEndToEndNames(t *testing.T) {
	doc := loadBenchmarkJSON(t)
	var want []string
	for _, m := range doc.EndToEnd {
		if m.Name != "setup_s" {
			want = append(want, m.Name)
		}
	}
	slices.Sort(want)
	w := &window{lat: map[string][]float64{"pass": {1}, "experiment": {1}, "light": {1}, "heavy": {1}, "lru": {1}, "restart_store": {1}, "restart": {1}, "store": {1}, "lru_phase": {1}}}
	w.events, w.allocs = 1, 1
	for name, m := range map[string]map[string]metric{
		"figures":      (&figures{perPass: []int64{1}}).endToEnd(w),
		"service-cold": (&cold{}).endToEnd(w),
		"service-hot":  (&hot{set: &hotSet{}}).endToEnd(w),
	} {
		got := make([]string, 0, len(m))
		for k := range m {
			got = append(got, k)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s reports %v, BENCHMARK.json registers %v", name, got, want)
		}
	}
}

// TestDependencySurface: only adapter.go imports the repository, and no
// source calls the engine-sharding API, a process-wide default setter
// or the old self-benchmark harness.
func TestDependencySurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	// Each name is spelled in two parts, so that a plain grep of the
	// benchmark's sources for it finds real uses only.
	forbidden := []string{"New" + "Sharded", "Set" + "Shards", "Resolve" + "ShardSpec", "Set" + "Parallelism",
		"Set" + "Default", "Set" + "CritPathProfiling", "Set" + "RunObserver", "Set" + "SeriesDefault",
		"sim" + "bench", "internal/" + "shard"}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range forbidden {
			if strings.Contains(string(src), name) {
				t.Errorf("%s mentions %s", f, name)
			}
		}
		ast, err := parser.ParseFile(token.NewFileSet(), f, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if strings.HasPrefix(path, "asyncio/") && f != "adapter.go" {
				t.Errorf("%s imports %s; only adapter.go may import the repository", f, path)
			}
		}
	}
}
