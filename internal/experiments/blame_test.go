package experiments

import "testing"

// TestAblationBlame runs the blame-attribution validation experiment at
// reduced scale; the generator itself errors when any of the profiler's
// promised properties fail.
func TestAblationBlame(t *testing.T) {
	tbl, err := AblationBlame(ReducedScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(tbl.Series))
	}
	for _, s := range tbl.Series {
		var total float64
		for _, y := range s.Y {
			total += y
		}
		if total < 0.97 || total > 1.0+1e-9 {
			t.Errorf("%s: category shares sum to %.4f, want ~1", s.Name, total)
		}
	}
}
