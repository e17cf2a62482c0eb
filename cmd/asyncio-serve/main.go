// Command asyncio-serve is the campaign service: a long-running daemon
// that accepts scenario specs over HTTP/JSON, schedules their
// simulation points across a worker pool, and serves the reports the
// CLIs produce offline — byte-identical to cmd/asyncio-bench and
// cmd/asyncio-trace, whether a result comes from a cold worker, the
// content-addressed cache, or the durable point store a previous
// incarnation of the daemon left behind.
//
// Endpoints:
//
//	POST /v1/campaigns            submit a spec (JSON body; ?wait=FORMAT blocks for the result)
//	GET  /v1/campaigns/{id}       campaign status
//	GET  /v1/campaigns/{id}/events  NDJSON progress stream (ends with a typed terminal record)
//	GET  /v1/campaigns/{id}/result?format=...  final report
//	GET  /healthz                 liveness (200 while the process is up, even mid-drain)
//	GET  /readyz                  readiness (503 once draining; reports store recovery)
//	GET  /metricz                 self-instrumentation CSV
//
// Usage:
//
//	asyncio-serve -listen :8080 -workers 4 -store-dir /var/lib/asyncio/points
//	curl -s -X POST 'localhost:8080/v1/campaigns?wait=table' -d '{"sweep":"fig3a"}'
//
// With -store-dir, computed points persist across restarts: on startup
// the store is scanned, torn or corrupt records are quarantined with
// typed errors (and logged), and recovered points are served
// byte-identical to fresh computation — a kill -9 costs at most the
// unflushed tail, never wrong bytes.
//
// SIGINT/SIGTERM drains gracefully: admission stops (503 on /readyz and
// POSTs), queued work finishes (bounded by -drain-timeout), the store
// is flushed and closed, then the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"asyncio/internal/campaign"
	"asyncio/internal/campaign/store"
)

func main() {
	var (
		listen        = flag.String("listen", ":8080", "HTTP listen address")
		workers       = flag.Int("workers", 2, "simulation worker pool size")
		queue         = flag.Int("queue", 256, "admission queue depth in points (overflow gets 429)")
		cacheSize     = flag.Int("cache", 1024, "point result cache entries (LRU)")
		drainTimeout  = flag.Duration("drain-timeout", 2*time.Minute, "max time to finish queued work on shutdown")
		storeDir      = flag.String("store-dir", "", "durable point store directory (empty = in-memory only)")
		storeFsync    = flag.Bool("store-fsync", false, "fsync the store after every flush batch")
		pointDeadline = flag.Duration("point-deadline", 0, "per-request point deadline (0 = none)")
		poisonStrikes = flag.Int("poison-strikes", 3, "panics before a point is poison-quarantined")
	)
	flag.Parse()

	cfg := campaign.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		CacheSize:     *cacheSize,
		PointDeadline: *pointDeadline,
		PoisonStrikes: *poisonStrikes,
	}
	var st *store.Store
	if *storeDir != "" {
		logf := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "asyncio-serve: "+format+"\n", args...)
		}
		var rep *store.RecoveryReport
		var err error
		st, rep, err = store.Open(store.Options{Dir: *storeDir, Fsync: *storeFsync, Logf: logf})
		if err != nil {
			fatalf("opening store: %v", err)
		}
		fmt.Fprintf(os.Stderr, "asyncio-serve: store %s: %s\n", *storeDir, rep.Summary())
		cfg.Store = st
		cfg.StoreRecovery = rep
	}

	svc := campaign.NewServer(cfg)
	httpSrv := newHTTPServer(*listen, svc.Handler())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "asyncio-serve: listening on %s (%d workers, queue %d, cache %d)\n",
		*listen, *workers, *queue, *cacheSize)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatalf("%v", err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "asyncio-serve: %v, draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "asyncio-serve: drain: %v\n", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "asyncio-serve: http shutdown: %v\n", err)
	}
	if st != nil {
		// After the drain no worker writes remain; a graceful exit
		// leaves a fully flushed, cleanly scanning store behind.
		if err := st.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "asyncio-serve: store close: %v\n", err)
		}
	}
}

// HTTP limits. A client gets readHeaderTimeout to send its request
// headers, and an idle keep-alive connection is closed after
// idleTimeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer builds the daemon's HTTP server with its limits set.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		// No WriteTimeout: NDJSON event streams and large sweeps outlive any fixed write bound.
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "asyncio-serve: "+format+"\n", args...)
	os.Exit(1)
}
