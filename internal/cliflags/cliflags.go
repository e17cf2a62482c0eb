// Package cliflags defines the observability, fault-injection,
// and durability flag block shared by the asyncio CLIs.
// cmd/asyncio-bench and cmd/asyncio-trace both register the block
// through Register, so the two tools expose the same flag surface by
// construction — a new shared flag added here appears in both, and the
// surfaces cannot drift apart again.
package cliflags

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"asyncio/internal/critpath"
	"asyncio/internal/faults"
	"asyncio/internal/pfs"
)

// Set holds the parsed values of the shared flag block.
type Set struct {
	// Observability exports.
	TraceJSON  string // -trace-json: Chrome trace-event JSON (Perfetto)
	MetricsCSV string // -metrics: metrics registry as CSV
	CritPath   string // -critpath: critical-path profile JSON + summary table
	Pprof      string // -pprof: critical-path profile as gzipped pprof protobuf

	// Fault injection.
	Faults string // -faults: spec parsed by internal/faults

	// Crash durability (consumed by crash-consistency runs).
	Durability      string // -durability: gpfs | lustre
	DurabilitySeed  int64  // -durability-seed
	CheckpointEvery int    // -checkpoint-every: durable commit interval, 0 = off
	Journal         bool   // -journal: write-ahead journal on the async path

	// PFS consistency model.
	Consistency string // -consistency: spec parsed by internal/pfs
}

// Register installs the shared flag block on fs and returns the Set
// the parsed values land in.
func Register(fs *flag.FlagSet) *Set {
	s := &Set{}
	fs.StringVar(&s.TraceJSON, "trace-json", "", "write the run's Chrome trace-event JSON (Perfetto) to this path")
	fs.StringVar(&s.MetricsCSV, "metrics", "", "write the metrics registry as CSV to this path")
	fs.StringVar(&s.CritPath, "critpath", "", "write the run's critical-path profile as JSON to this path and print its summary table")
	fs.StringVar(&s.Pprof, "pprof", "", "write the run's critical-path profile as a gzipped pprof protobuf to this path (go tool pprof)")
	fs.StringVar(&s.Faults, "faults", "", "fault-injection spec (see internal/faults)")
	fs.StringVar(&s.Durability, "durability", "gpfs", "write-back durability semantics on crash: gpfs | lustre")
	fs.Int64Var(&s.DurabilitySeed, "durability-seed", 1, "seed for the crash tearing draws")
	fs.IntVar(&s.CheckpointEvery, "checkpoint-every", 0, "durable checkpoint interval in epochs, 0 = off")
	fs.BoolVar(&s.Journal, "journal", false, "journal asynchronous writes ahead of dispatch")
	fs.StringVar(&s.Consistency, "consistency", "", "PFS consistency model: posix | session | mpiio | commit, with ;key=value tuning (see internal/pfs); empty = historical implicit model")
	return s
}

// WantCritPath reports whether any critical-path export was requested;
// callers use it to decide whether to attach a recorder to the run.
func (s *Set) WantCritPath() bool { return s.CritPath != "" || s.Pprof != "" }

// WantObservability reports whether any per-run export was requested.
func (s *Set) WantObservability() bool {
	return s.TraceJSON != "" || s.MetricsCSV != "" || s.WantCritPath()
}

// WantDurability reports whether the crash-durability plumbing
// (checkpoints or journaling) was requested.
func (s *Set) WantDurability() bool { return s.CheckpointEvery > 0 || s.Journal }

// Injector builds the run's fault injector from -faults (nil, nil when
// no spec was given). Injectors serve exactly one run; call once per
// run.
func (s *Set) Injector() (*faults.Injector, error) {
	if s.Faults == "" {
		return nil, nil
	}
	return faults.New(s.Faults)
}

// ConsistencySpec parses -consistency (nil, nil when the flag was left
// empty: the historical implicit model, byte-identical to builds that
// predate the knob).
func (s *Set) ConsistencySpec() (*pfs.ConsistencySpec, error) {
	if s.Consistency == "" {
		return nil, nil
	}
	return pfs.ParseConsistency(s.Consistency)
}

// DurabilityConfig resolves -durability/-durability-seed into the
// write-back cache model crash runs tear on power loss.
func (s *Set) DurabilityConfig() (pfs.DurabilityConfig, error) {
	return durabilityConfig(s.Durability, s.DurabilitySeed)
}

// ExportProfile writes the requested critical-path artifacts: the
// deterministic JSON profile (plus its human summary table on render)
// for -critpath, and the gzipped pprof protobuf for -pprof. A nil
// profile is an error when either flag was set — the run should have
// carried one.
func (s *Set) ExportProfile(prof *critpath.Profile, render io.Writer) error {
	if !s.WantCritPath() {
		return nil
	}
	if prof == nil {
		return errors.New("no critical-path profile was produced")
	}
	if s.CritPath != "" {
		f, err := os.Create(s.CritPath)
		if err != nil {
			return err
		}
		if err := prof.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing critical-path profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		if render != nil {
			prof.Render(render)
		}
	}
	if s.Pprof != "" {
		f, err := os.Create(s.Pprof)
		if err != nil {
			return err
		}
		if err := prof.WritePprof(f); err != nil {
			f.Close()
			return fmt.Errorf("writing pprof profile: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
