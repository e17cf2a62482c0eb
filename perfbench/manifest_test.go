package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update-digests", false, "regenerate digests.txt from the current simulator")

// TestDigestManifest regenerates digests.txt with -update-digests. The
// benchmark itself checks every rendered table against the manifest,
// so without the flag this only checks the manifest lists every
// registered experiment.
func TestDigestManifest(t *testing.T) {
	if *updateDigests {
		var b strings.Builder
		for _, id := range experimentIDs() {
			body, err := renderExperiment(id)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %s\n", id, digest(body))
		}
		if err := os.WriteFile("digests.txt", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	m, err := parseManifest(digestManifest)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range experimentIDs() {
		if _, ok := m[id]; !ok {
			t.Errorf("experiment %s missing from digests.txt", id)
		}
	}
}
