package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// endpoint is a campaign server plus the HTTP client the benchmark's
// closed-loop clients share to reach it.
type endpoint struct {
	svc *service
	hc  *http.Client
}

func openEndpoint(dir string) (*endpoint, error) {
	svc, err := startService(dir)
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}
	return &endpoint{svc: svc, hc: &http.Client{Transport: tr, Timeout: time.Minute}}, nil
}

func (e *endpoint) close() error {
	e.hc.CloseIdleConnections()
	return e.svc.close()
}

func (e *endpoint) get(path string) ([]byte, int, error) {
	resp, err := e.hc.Get(e.svc.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// readyTimeout bounds how long a (re)started server may take to report
// ready.
const readyTimeout = 30 * time.Second

// waitReady polls /readyz until it answers 200.
func (e *endpoint) waitReady() error {
	deadline := time.Now().Add(readyTimeout)
	for {
		_, code, err := e.get("/readyz")
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v (status %d, err %v)", readyTimeout, code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// reply is one served result.
type reply struct {
	body  []byte
	wait  time.Duration // submit → response headers (queue + compute)
	total time.Duration // submit → last byte
}

// submit posts one spec and blocks (?wait=) for its result, which it
// reads into buf (reused across a client's requests, so the client
// side adds no allocation churn to the server's heap). The reply's body
// aliases buf.
func (e *endpoint) submit(rq request, buf *bytes.Buffer) (reply, error) {
	body := rq.spec.body(rq.tenant)
	start := time.Now()
	resp, err := e.hc.Post(e.svc.base+"/v1/campaigns?wait="+rq.format, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	wait := time.Since(start)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	r := reply{body: buf.Bytes(), wait: wait, total: time.Since(start)}
	if err != nil {
		return r, err
	}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(r.body)))
	}
	return r, nil
}

// call runs one timed request in a window: a transport error, a non-200
// (429 included) or a body whose digest is not want ("" = unchecked)
// fails it; otherwise its latency is observed under class. It returns
// the served body's digest ("" on failure).
func (e *endpoint) call(w *window, rq request, class, track, want string, buf *bytes.Buffer) (string, reply) {
	r, err := e.submit(rq, buf)
	start := time.Now().Add(-r.total)
	if err != nil {
		w.fail("%s %s: %v", rq.phase, rq.spec.content(), err)
		return "", r
	}
	d := digest(r.body)
	if want != "" && d != want {
		w.fail("%s %s format %s: body differs from its first serving", rq.phase, rq.spec.content(), rq.format)
		return "", r
	}
	w.observe(class, r.total)
	w.spans.add(track, class+" wait", start, r.wait)
	w.spans.add(track, class+" body", start.Add(r.wait), r.total-r.wait)
	return d, r
}

// counters reads the final value of every counter and gauge at /metricz.
func (e *endpoint) counters() (map[string]float64, error) {
	b, code, err := e.get("/metricz")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metricz: status %d", code)
	}
	return parseMetricz(b)
}

// parseMetricz keeps the "final" rows of the label,metric,kind,stat,
// at_seconds,value CSV.
func parseMetricz(b []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Split(sc.Text(), ",")
		if len(f) != 6 || f[3] != "final" {
			continue
		}
		v, err := strconv.ParseFloat(f[5], 64)
		if err != nil {
			return nil, fmt.Errorf("/metricz: %q: %w", sc.Text(), err)
		}
		out[f[1]] = v
	}
	return out, sc.Err()
}

// healthzProbes is how many sequential /healthz round trips measure
// the HTTP floor on an idle server.
const healthzProbes = 200

func (e *endpoint) healthzP50() (float64, error) {
	lat := make([]float64, 0, healthzProbes)
	for i := 0; i < healthzProbes; i++ {
		start := time.Now()
		_, code, err := e.get("/healthz")
		if err != nil {
			return 0, err
		}
		if code != http.StatusOK {
			return 0, fmt.Errorf("/healthz: status %d", code)
		}
		lat = append(lat, ms(time.Since(start)))
	}
	return median(lat), nil
}

// closedLoop runs clients goroutines; each calls next with its own
// response buffer until it returns false, so a client sends its next
// request only after the previous one completed.
func closedLoop(clients int, next func(client int, buf *bytes.Buffer) bool) {
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for next(c, &buf) {
			}
		}()
	}
	wg.Wait()
}

// serviceLayerDefaults sets every service-side per-layer metric to 0,
// for workloads where that layer does no work.
func serviceLayerDefaults(out map[string]metric) {
	for _, k := range []string{"store.live_bytes", "store.flush_bytes"} {
		out[k] = metric{0, "bytes"}
	}
	for _, k := range []string{"store.segments", "store.scan_records", "campaign.lookups", "campaign.submits", "vclock.events"} {
		out[k] = metric{0, "count"}
	}
	for _, k := range []string{"campaign.compute_p50_ms", "campaign.queue_wait_p50_ms", "campaign.queue_wait_tail_ms", "http.healthz_p50_ms"} {
		out[k] = metric{0, "ms"}
	}
	for _, k := range []string{"campaign.cache.hit_ratio", "campaign.store.hit_ratio", "campaign.reject_ratio"} {
		out[k] = metric{0, "ratio"}
	}
}

// serviceLayer fills the service-side per-layer metrics from the
// /metricz counters at the start and end of a traced window (before is
// nil when the server started inside the window), the idle HTTP floor,
// and direct compute timings of points the window served cold.
func serviceLayer(out map[string]metric, e *endpoint, before map[string]float64, cold []coldServed) error {
	serviceLayerDefaults(out)
	after, err := e.counters()
	if err != nil {
		return err
	}
	delta := func(k string) float64 { return after[k] - before[k] }
	hits, misses := delta("campaign.cache.hits"), delta("campaign.cache.misses")
	storeHits := delta("campaign.store.hits")
	admitted, rejected := delta("campaign.admitted"), delta("campaign.rejected")
	lookups := hits + misses
	out["campaign.lookups"] = metric{lookups, "count"}
	out["campaign.cache.hit_ratio"] = metric{ratio(hits-storeHits, lookups), "ratio"}
	out["campaign.store.hit_ratio"] = metric{ratio(storeHits, lookups), "ratio"}
	out["campaign.submits"] = metric{admitted + rejected, "count"}
	out["campaign.reject_ratio"] = metric{ratio(rejected, admitted+rejected), "ratio"}
	out["store.live_bytes"] = metric{after["campaign.store.live.bytes"], "bytes"}
	out["store.segments"] = metric{after["campaign.store.segments"], "count"}
	out["store.scan_records"] = metric{after["campaign.store.scan.records"], "count"}
	out["store.flush_bytes"] = metric{delta("campaign.store.flush.bytes"), "bytes"}

	hz, err := e.healthzP50()
	if err != nil {
		return err
	}
	out["http.healthz_p50_ms"] = metric{hz, "ms"}

	var compute, queue []float64
	for _, c := range cold {
		compute = append(compute, ms(c.compute))
		queue = append(queue, ms(c.served-c.compute))
	}
	_, qt := tail(queue)
	out["campaign.compute_p50_ms"] = metric{median(compute), "ms"}
	out["campaign.queue_wait_p50_ms"] = metric{median(queue), "ms"}
	out["campaign.queue_wait_tail_ms"] = metric{qt, "ms"}
	return nil
}

// coldServed pairs a cold point's served latency with the time the
// same point takes to compute directly.
type coldServed struct {
	served, compute time.Duration
}

// verifyDirect recomputes a served request in-process and checks the
// body the server sent (by digest) against it.
func verifyDirect(w *window, rq request, servedDigest string) (time.Duration, bool) {
	body, compute, err := directResult(rq.spec.body(rq.tenant), rq.format)
	if err != nil {
		w.invalidate("direct %s: %v", rq.spec.content(), err)
		return 0, false
	}
	if digest(body) != servedDigest {
		w.invalidate("%s %s: served body differs from direct computation", rq.phase, rq.spec.content())
		return 0, false
	}
	return compute, true
}
