package main

// This file is the benchmark's whole dependency surface on the
// simulator and the campaign service: every asyncio/internal entry
// point the benchmark calls is named here and nowhere else. It calls
// no process-wide setter and no engine-sharding API, so refactors that
// remove those keep the benchmark building unchanged.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"time"

	"asyncio/internal/campaign"
	"asyncio/internal/campaign/store"
	"asyncio/internal/experiments"
	"asyncio/internal/perfetto"
	"asyncio/internal/trace"
	"asyncio/internal/vclock"
)

// experimentIDs lists every registered experiment, sorted.
func experimentIDs() []string {
	reg := experiments.Registry()
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// renderExperiment regenerates one experiment at reduced scale with
// the default knobs and returns its rendered table, the bytes
// `asyncio-bench -exp <id>` prints.
func renderExperiment(id string) ([]byte, error) {
	gen := experiments.Registry()[id]
	if gen == nil {
		return nil, fmt.Errorf("unknown experiment %q", id)
	}
	tab, err := gen(experiments.ReducedScale())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		return nil, fmt.Errorf("%s: rendering: %w", id, err)
	}
	return buf.Bytes(), nil
}

// simEvents is the process-wide count of simulated events fired so far.
func simEvents() int64 { return vclock.TotalEvents() }

// sweepIDs lists the sweep figures the service accepts.
func sweepIDs() []string { return experiments.SweepIDs() }

// service is one in-process campaign server on a loopback listener,
// backed by a durable point store in its own directory.
type service struct {
	base string // http://127.0.0.1:port
	svc  *campaign.Server
	st   *store.Store
	hs   *http.Server
	done chan struct{} // closed when Serve returns
}

// startService opens the store in dir (recovering whatever a previous
// server left there) and serves a default-configured campaign server
// on a fresh loopback port.
func startService(dir string) (*service, error) {
	st, rep, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	svc := campaign.NewServer(campaign.Config{Store: st, StoreRecovery: rep})
	s := &service{
		base: "http://" + ln.Addr().String(),
		svc:  svc,
		st:   st,
		hs:   &http.Server{Handler: svc.Handler()},
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln)
	}()
	return s, nil
}

// close stops HTTP, then the worker pool, then flushes and closes the
// store, and waits for the serving goroutine to exit.
func (s *service) close() error {
	herr := s.hs.Close()
	<-s.done
	s.svc.Close()
	serr := s.st.Close()
	if errors.Is(herr, http.ErrServerClosed) {
		herr = nil
	}
	return errors.Join(herr, serr)
}

// pointCount is how many simulation points a spec schedules.
func pointCount(specJSON []byte) (int, error) {
	sp, err := campaign.DecodeSpec(specJSON)
	if err != nil {
		return 0, err
	}
	return sp.PointCount()
}

// directResult computes a spec's points in-process, without the
// server, and renders the body the server serves for format. It
// returns the time spent in campaign.ComputePoint alone.
func directResult(specJSON []byte, format string) ([]byte, time.Duration, error) {
	sp, err := campaign.DecodeSpec(specJSON)
	if err != nil {
		return nil, 0, err
	}
	n, err := sp.PointCount()
	if err != nil {
		return nil, 0, err
	}
	payloads := make([][]byte, n)
	start := time.Now()
	for i := range payloads {
		if payloads[i], err = campaign.ComputePoint(sp, i); err != nil {
			return nil, 0, err
		}
	}
	compute := time.Since(start)
	if sp.Kind == "sweep" {
		if format != "table" {
			return nil, 0, fmt.Errorf("sweep format %q not checked directly", format)
		}
		body, err := campaign.AssembleSweepTable(sp, payloads)
		return body, compute, err
	}
	bundle, err := campaign.DecodeBundle(payloads[0])
	if err != nil {
		return nil, 0, err
	}
	artifact := map[string]string{
		"perfetto": campaign.ArtifactPerfetto,
		"summary":  campaign.ArtifactSummary,
		"metrics":  campaign.ArtifactMetrics,
	}[format]
	body, ok := bundle[artifact]
	if !ok {
		return nil, 0, fmt.Errorf("run format %q not in bundle", format)
	}
	return body, compute, nil
}

// spanLog records the benchmark's own wall-clock spans on the repo's
// trace/Perfetto path. A nil *spanLog records nothing.
type spanLog struct {
	t0   time.Time
	root *trace.Span
}

func newSpanLog(name string) *spanLog {
	return &spanLog{t0: time.Now(), root: trace.NewSpan(name)}
}

// add records [start, start+dur) on the named track.
func (l *spanLog) add(track, name string, start time.Time, dur time.Duration) {
	if l == nil {
		return
	}
	l.root.EventDurOn(name, 0, start.Sub(l.t0), dur, track)
}

// write renders the spans as trace-event JSON for ui.perfetto.dev.
func (l *spanLog) write(w io.Writer) error {
	return perfetto.Write(w, []*trace.Span{l.root}, nil)
}
