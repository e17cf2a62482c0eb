// Package campaign implements the asyncio-serve sweep server: a
// long-running daemon that accepts scenario specs over HTTP, schedules
// their simulation points across a worker pool, and memoizes results in
// a content-addressed cache.
//
// Determinism is the service contract. A spec is canonicalized (field
// order, whitespace, and default-value differences all normalize away)
// and content-hashed, and every simulation point is an independent run
// on its own virtual clock — so a result served from cache, computed by
// a cold worker, or computed under a different worker count is
// byte-identical. The knob fields (faults, consistency, durability)
// share the CLI flag grammar through internal/cliflags, so the
// HTTP surface cannot drift from the flag surface.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"time"

	"asyncio/internal/cliflags"
	"asyncio/internal/experiments"
)

// MaxSpecBytes bounds a POSTed spec body; anything larger is rejected
// before decoding.
const MaxSpecBytes = 1 << 16

// Spec is one scenario: either a paper-figure sweep (kind "sweep") or a
// single instrumented run (kind "run"), plus the shared knob block. The
// JSON field names are the wire format cmd/asyncio-serve accepts.
type Spec struct {
	// Kind selects the scenario shape: "sweep" or "run". Empty infers
	// "sweep" when a sweep id is given, "run" otherwise.
	Kind string `json:"kind,omitempty"`
	// Tenant attributes the request for fair scheduling ("default"
	// when empty). It is part of campaign identity but never of the
	// point cache key, so tenants share cached simulation work.
	Tenant string `json:"tenant,omitempty"`

	// Sweep kind: a figure id from experiments.SweepIDs (e.g. "fig3a")
	// at a named scale ("reduced" or "full", default "reduced").
	Sweep string `json:"sweep,omitempty"`
	Scale string `json:"scale,omitempty"`

	// Run kind: one workload on one system, mirroring asyncio-trace.
	Workload       string  `json:"workload,omitempty"`        // vpic | bdcats | nyx | castro | eqsim
	System         string  `json:"system,omitempty"`          // summit | cori
	Nodes          int     `json:"nodes,omitempty"`           // allocation size
	Mode           string  `json:"mode,omitempty"`            // sync | async | adaptive
	Steps          int     `json:"steps,omitempty"`           // epochs
	ComputeSeconds float64 `json:"compute_seconds,omitempty"` // compute phase per epoch

	// Crash durability (run kind, vpic only).
	Durability      string `json:"durability,omitempty"`       // gpfs | lustre
	DurabilitySeed  int64  `json:"durability_seed,omitempty"`  // tearing draws
	CheckpointEvery int    `json:"checkpoint_every,omitempty"` // epochs, 0 = off
	Journal         bool   `json:"journal,omitempty"`

	// Shared knob block (grammar: internal/cliflags).
	Faults      string `json:"faults,omitempty"`
	Consistency string `json:"consistency,omitempty"`
	// Shards is accepted, whatever its value, only so that specs from
	// clients of the retired sharded engine still decode. Canonicalize
	// drops it: it never reaches execution or the content hash.
	Shards string `json:"shards,omitempty"`
}

// SpecError is the typed 400 a malformed spec produces. Field names the
// offending spec field when one is identifiable.
type SpecError struct {
	Field string
	Msg   string
}

func (e *SpecError) Error() string {
	if e.Field == "" {
		return "spec: " + e.Msg
	}
	return "spec: " + e.Field + ": " + e.Msg
}

func specErrf(field, format string, args ...any) *SpecError {
	return &SpecError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// DecodeSpec parses and canonicalizes one JSON spec. Unknown fields,
// trailing data, and every validation failure come back as *SpecError —
// the server maps them to 400, and the fuzzer asserts no input panics.
func DecodeSpec(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, specErrf("", "body exceeds %d bytes", MaxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, &SpecError{Msg: err.Error()}
	}
	if dec.More() {
		return nil, &SpecError{Msg: "trailing data after spec"}
	}
	return s.Canonicalize()
}

// validName reports whether s is a safe identifier (tenant names appear
// in metric names and URLs).
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

var sweepIDSet = func() map[string]bool {
	m := make(map[string]bool)
	for _, id := range experiments.SweepIDs() {
		m[id] = true
	}
	return m
}()

// scaleOf maps a canonical scale name to its experiments.Scale.
func scaleOf(name string) experiments.Scale {
	if name == "full" {
		return experiments.FullScale()
	}
	return experiments.ReducedScale()
}

// Canonicalize validates the spec and returns its normal form: defaults
// filled in, knob strings re-rendered through their parsers' String
// round-trips, and fields the kind ignores cleared — so any two specs
// describing the same experiment canonicalize to identical values and
// hash identically.
func (s *Spec) Canonicalize() (*Spec, error) {
	c := *s
	if c.Tenant == "" {
		c.Tenant = "default"
	}
	if !validName(c.Tenant) {
		return nil, specErrf("tenant", "must be 1-64 chars of [A-Za-z0-9._-], got %q", c.Tenant)
	}
	if c.Kind == "" {
		if c.Sweep != "" {
			c.Kind = "sweep"
		} else {
			c.Kind = "run"
		}
	}
	switch c.Kind {
	case "sweep":
		if err := c.canonSweep(); err != nil {
			return nil, err
		}
	case "run":
		if err := c.canonRun(); err != nil {
			return nil, err
		}
	default:
		return nil, specErrf("kind", "unknown kind %q (want sweep or run)", c.Kind)
	}
	pk, err := c.knobBlock().Parse()
	if err != nil {
		return nil, &SpecError{Msg: err.Error()}
	}
	// Re-render through the parsers' String round-trips so equivalent
	// spellings normalize to one canonical form.
	if pk.Faults != nil {
		c.Faults = pk.Faults.String()
	}
	if pk.Consistency != nil {
		c.Consistency = pk.Consistency.String()
	}
	c.Shards = ""
	if c.Kind == "run" {
		if c.Durability == "" {
			c.Durability = "gpfs"
		}
		if c.DurabilitySeed == 0 {
			c.DurabilitySeed = 1
		}
	}
	return &c, nil
}

func (c *Spec) canonSweep() error {
	if !sweepIDSet[c.Sweep] {
		return specErrf("sweep", "unknown sweep figure %q (want one of %v)", c.Sweep, experiments.SweepIDs())
	}
	if c.Scale == "" {
		c.Scale = "reduced"
	}
	if c.Scale != "reduced" && c.Scale != "full" {
		return specErrf("scale", "unknown scale %q (want reduced or full)", c.Scale)
	}
	// Run-only fields are rejected rather than silently ignored.
	switch {
	case c.Workload != "":
		return specErrf("workload", "only meaningful for run specs")
	case c.System != "":
		return specErrf("system", "only meaningful for run specs")
	case c.Nodes != 0:
		return specErrf("nodes", "only meaningful for run specs")
	case c.Mode != "":
		return specErrf("mode", "only meaningful for run specs")
	case c.Steps != 0:
		return specErrf("steps", "only meaningful for run specs")
	case c.ComputeSeconds != 0:
		return specErrf("compute_seconds", "only meaningful for run specs")
	case c.CheckpointEvery != 0:
		return specErrf("checkpoint_every", "only meaningful for run specs")
	case c.Journal:
		return specErrf("journal", "only meaningful for run specs")
	}
	// Sweeps never tear write-back caches: durability is normalized
	// away so it cannot split the cache key.
	c.Durability, c.DurabilitySeed = "", 0
	return nil
}

func (c *Spec) canonRun() error {
	if c.Sweep != "" {
		return specErrf("sweep", "only meaningful for sweep specs")
	}
	if c.Scale != "" {
		return specErrf("scale", "only meaningful for sweep specs")
	}
	if c.Workload == "" {
		c.Workload = "vpic"
	}
	switch c.Workload {
	case "vpic", "bdcats", "nyx", "castro", "eqsim":
	default:
		return specErrf("workload", "unknown workload %q", c.Workload)
	}
	if c.System == "" {
		c.System = "summit"
	}
	if c.System != "summit" && c.System != "cori" {
		return specErrf("system", "unknown system %q (want summit or cori)", c.System)
	}
	if c.Nodes == 0 {
		c.Nodes = 2
	}
	if c.Nodes < 1 || c.Nodes > 2048 {
		return specErrf("nodes", "%d outside 1..2048", c.Nodes)
	}
	if c.Mode == "" {
		c.Mode = "adaptive"
	}
	if c.Mode != "sync" && c.Mode != "async" && c.Mode != "adaptive" {
		return specErrf("mode", "unknown mode %q (want sync, async, or adaptive)", c.Mode)
	}
	if c.Steps == 0 {
		c.Steps = 4
	}
	if c.Steps < 1 || c.Steps > 64 {
		return specErrf("steps", "%d outside 1..64", c.Steps)
	}
	switch c.Workload {
	case "nyx", "eqsim":
		// These workloads carry their own compute model; the knob is
		// ignored, so it is normalized away rather than splitting hashes.
		c.ComputeSeconds = 0
	default:
		if c.ComputeSeconds == 0 {
			c.ComputeSeconds = 30
		}
		if c.ComputeSeconds < 0 || c.ComputeSeconds > 3600 {
			return specErrf("compute_seconds", "%v outside (0, 3600]", c.ComputeSeconds)
		}
	}
	if c.CheckpointEvery < 0 || c.CheckpointEvery > 64 {
		return specErrf("checkpoint_every", "%d outside 0..64", c.CheckpointEvery)
	}
	if (c.CheckpointEvery > 0 || c.Journal) && c.Workload != "vpic" {
		return specErrf("checkpoint_every", "crash-durability plumbing is only wired into the vpic workload")
	}
	return nil
}

// knobBlock lifts the spec's knob fields into the shared cliflags
// grammar for validation and canonicalization.
func (c *Spec) knobBlock() cliflags.Knobs {
	return cliflags.Knobs{
		Faults:         c.Faults,
		Consistency:    c.Consistency,
		Durability:     c.Durability,
		DurabilitySeed: c.DurabilitySeed,
	}
}

// ComputeTime returns the canonical compute phase as a duration.
func (c *Spec) ComputeTime() time.Duration {
	return time.Duration(c.ComputeSeconds * float64(time.Second))
}

// contentLines is the canonical encoding of the experiment content —
// what the simulation computes, independent of who asked (tenant).
// Point cache keys derive from it, so tenants share cached work.
func (c *Spec) contentLines() []string {
	ls := []string{"kind=" + c.Kind}
	switch c.Kind {
	case "sweep":
		ls = append(ls, "sweep="+c.Sweep, "scale="+c.Scale)
	case "run":
		ls = append(ls,
			"workload="+c.Workload,
			"system="+c.System,
			"nodes="+strconv.Itoa(c.Nodes),
			"mode="+c.Mode,
			"steps="+strconv.Itoa(c.Steps),
			"compute="+strconv.FormatFloat(c.ComputeSeconds, 'g', -1, 64),
			"durability="+c.Durability,
			"durability_seed="+strconv.FormatInt(c.DurabilitySeed, 10),
			"checkpoint_every="+strconv.Itoa(c.CheckpointEvery),
			"journal="+strconv.FormatBool(c.Journal),
		)
	}
	return append(ls, "faults="+c.Faults, "consistency="+c.Consistency)
}

func hashLines(lines []string) string {
	h := fnv.New64a()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ContentHash is the FNV-1a 64 hash of the canonical experiment
// content. Two specs with equal ContentHash produce byte-identical
// results.
func (c *Spec) ContentHash() string { return hashLines(c.contentLines()) }

// ID is the campaign identity: the content hash salted with the tenant,
// so each tenant's submission is its own campaign (with its own
// attribution and fairness accounting) while the underlying points
// still share one cache via ContentHash.
func (c *Spec) ID() string {
	return hashLines(append(c.contentLines(), "tenant="+c.Tenant))
}

// PointCount returns how many independent simulation points the spec
// schedules: 2 per node count for a sweep, 1 for a run.
func (c *Spec) PointCount() (int, error) {
	if c.Kind == "sweep" {
		return experiments.SweepPointCount(c.Sweep, scaleOf(c.Scale))
	}
	return 1, nil
}

// PointKey returns the cache key of point i: the content hash plus the
// point index.
func (c *Spec) PointKey(i int) string {
	return c.ContentHash() + "/" + strconv.Itoa(i)
}
