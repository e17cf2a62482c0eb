package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"asyncio/internal/vclock"
)

// setCompute swaps the worker's compute function — the supervision
// test seam. Call before submitting any work.
func setCompute(s *Server, fn func(*Spec, int) ([]byte, error)) {
	s.mu.Lock()
	s.compute = fn
	s.mu.Unlock()
}

const panicSpec = `{"kind":"run","tenant":"mallory","workload":"vpic","nodes":1,"steps":1,"compute_seconds":3}`

// TestPanicPoisonTyped500 pins the poison-quarantine path: a spec whose
// compute panics every time burns its strikes, the campaign fails with
// a typed 500 naming the poison, and resubmitting gets the same stable
// answer without a single new compute attempt. Meanwhile another
// tenant's campaign on the same pool completes untouched — one
// tenant's panic never stalls the others. The panic is raised both on
// the worker goroutine and inside a simulated process, which the
// virtual clock re-raises from Wait on the worker's goroutine.
func TestPanicPoisonTyped500(t *testing.T) {
	for _, tc := range []struct {
		name  string
		raise func(msg string)
	}{
		{"worker", func(msg string) { panic(msg) }},
		{"proc", func(msg string) {
			clk := vclock.New()
			clk.Go("bystander", func(p *vclock.Proc) { p.Sleep(time.Hour) })
			clk.Go("rank0", func(p *vclock.Proc) {
				p.Sleep(time.Second)
				panic(msg)
			})
			_ = clk.Wait()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { testPanicPoison(t, tc.raise) })
	}
}

func testPanicPoison(t *testing.T, raise func(msg string)) {
	svc, ts := startService(t, Config{Workers: 2, PoisonStrikes: 3, RedispatchBackoff: time.Millisecond})
	var attempts atomic.Int64
	setCompute(svc, func(spec *Spec, i int) ([]byte, error) {
		if spec.Tenant == "mallory" {
			attempts.Add(1)
			raise(fmt.Sprintf("injected fault for %s", spec.PointKey(i)))
		}
		return ComputePoint(spec, i)
	})

	// The healthy tenant's campaign, submitted first and raced against
	// the panicking one.
	goodCh := make(chan []byte, 1)
	go func() {
		code, _, body := post(t, ts, "/v1/campaigns?wait=summary",
			`{"kind":"run","tenant":"alice","workload":"vpic","nodes":1,"steps":1,"compute_seconds":2}`)
		if code != http.StatusOK {
			t.Errorf("healthy tenant: status %d: %s", code, body)
		}
		goodCh <- body
	}()

	code, _, body := post(t, ts, "/v1/campaigns?wait=summary", panicSpec)
	if code != http.StatusInternalServerError {
		t.Fatalf("panicking campaign: status %d, want 500: %s", code, body)
	}
	var fail map[string]string
	if err := json.Unmarshal(body, &fail); err != nil {
		t.Fatalf("500 body is not typed JSON: %s", body)
	}
	if fail["kind"] != "poisoned" {
		t.Fatalf("failure kind = %q, want poisoned: %s", fail["kind"], body)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("compute attempted %d times, want exactly PoisonStrikes=3", got)
	}
	if c := counter(t, svc, "campaign.poisoned"); c != 1 {
		t.Errorf("campaign.poisoned = %d, want 1", c)
	}
	if c := counter(t, svc, "campaign.redispatches"); c != 2 {
		t.Errorf("campaign.redispatches = %d, want 2 (strikes 1 and 2 retried)", c)
	}

	if body := <-goodCh; len(body) == 0 {
		t.Error("healthy tenant's summary came back empty")
	}

	// Stable rejection: the same campaign answers identically, forever,
	// with zero new compute attempts.
	before := attempts.Load()
	code, _, again := post(t, ts, "/v1/campaigns?wait=summary", panicSpec)
	if code != http.StatusInternalServerError || !bytes.Equal(again, body) {
		t.Errorf("resubmit: status %d body %s, want identical stable 500", code, again)
	}
	if attempts.Load() != before {
		t.Errorf("resubmitting a poisoned spec recomputed it (%d -> %d attempts)", before, attempts.Load())
	}
}

// TestRedispatchThenSucceed pins the capped-backoff retry: a point that
// panics twice and then succeeds must deliver the correct bytes, with
// the strikes wiped for the next time.
func TestRedispatchThenSucceed(t *testing.T) {
	svc, ts := startService(t, Config{Workers: 2, PoisonStrikes: 5, RedispatchBackoff: time.Millisecond})
	var attempts atomic.Int64
	setCompute(svc, func(spec *Spec, i int) ([]byte, error) {
		if attempts.Add(1) <= 2 {
			panic("transient fault")
		}
		return ComputePoint(spec, i)
	})

	code, _, body := post(t, ts, "/v1/campaigns?wait=summary", panicSpec)
	if code != http.StatusOK {
		t.Fatalf("status %d after transient panics: %s", code, body)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (two panics, one success)", got)
	}
	if c := counter(t, svc, "campaign.redispatches"); c != 2 {
		t.Errorf("campaign.redispatches = %d, want 2", c)
	}
	if c := counter(t, svc, "campaign.poisoned"); c != 0 {
		t.Errorf("campaign.poisoned = %d, want 0", c)
	}
	svc.mu.Lock()
	stuck := len(svc.strikes)
	svc.mu.Unlock()
	if stuck != 0 {
		t.Errorf("%d strike entries left after success — stale state would poison a healthy key", stuck)
	}
}

// TestDeadlineExpired pins per-request deadline propagation on a fake
// clock: work admitted under a deadline that passes before any worker
// reaches it fails with a typed deadline 500, deterministically.
func TestDeadlineExpired(t *testing.T) {
	svc, ts := startService(t, Config{Workers: 1, PointDeadline: time.Second})
	var clock atomic.Int64 // nanoseconds past base
	base := time.UnixMicro(1_000_000)
	svc.mu.Lock()
	svc.nowFn = func() time.Time { return base.Add(time.Duration(clock.Load())) }
	svc.mu.Unlock()

	svc.Pause() // hold the queue so the deadline can pass deterministically
	code, _, body := post(t, ts, "/v1/campaigns", panicSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d: %s", code, body)
	}
	var st statusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	clock.Store(int64(2 * time.Second)) // now > admission deadline
	svc.Resume()

	code, res := get(t, ts, "/v1/campaigns/"+st.ID+"/result")
	if code != http.StatusInternalServerError {
		t.Fatalf("result: status %d, want 500: %s", code, res)
	}
	var fail map[string]string
	if err := json.Unmarshal(res, &fail); err != nil || fail["kind"] != "deadline" {
		t.Fatalf("failure kind = %q, want deadline: %s", fail["kind"], res)
	}
	if c := counter(t, svc, "campaign.deadline.expired"); c != 1 {
		t.Errorf("campaign.deadline.expired = %d, want 1", c)
	}
}

// TestRetryAfterJitterDeterministic pins the 429 jitter function:
// stable per tenant, load-proportional, and actually spread across
// tenant names.
func TestRetryAfterJitterDeterministic(t *testing.T) {
	if a, b := retryAfterFor("alice", 0, 4), retryAfterFor("alice", 0, 4); a != b {
		t.Fatalf("jitter not deterministic: %d vs %d", a, b)
	}
	if base, loaded := retryAfterFor("alice", 0, 4), retryAfterFor("alice", 64, 4); loaded-base != 4 {
		t.Errorf("load component: base %d loaded %d, want +4", base, loaded)
	}
	distinct := make(map[int]bool)
	for i := 0; i < 8; i++ {
		distinct[retryAfterFor(fmt.Sprintf("tenant-%d", i), 0, 4)] = true
	}
	if len(distinct) < 3 {
		t.Errorf("8 tenants landed on %d distinct Retry-After values, want ≥3", len(distinct))
	}
}

// TestEventsTerminalRecord pins the NDJSON terminal frame on the happy
// path: the stream's last record is final with state "complete".
func TestEventsTerminalRecord(t *testing.T) {
	_, ts := startService(t, Config{Workers: 2})
	code, _, body := post(t, ts, "/v1/campaigns", `{"kind":"run","tenant":"alice","workload":"vpic","nodes":1,"steps":1,"compute_seconds":1}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("POST: status %d", code)
	}
	var st statusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	code, evBody := get(t, ts, "/v1/campaigns/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	lines := strings.Split(strings.TrimSpace(string(evBody)), "\n")
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last event line: %v (%s)", err, lines[len(lines)-1])
	}
	if !last.Final || last.State != "complete" {
		t.Fatalf("terminal record = %+v, want final complete", last)
	}
	for _, l := range lines[:len(lines)-1] {
		var ev Event
		if err := json.Unmarshal([]byte(l), &ev); err != nil || ev.Final {
			t.Fatalf("non-terminal line marked final: %s", l)
		}
	}
}

// TestEventsAbortedTerminalRecord pins the drain-mid-campaign contract:
// when the daemon shuts down with points still queued, the stream ends
// with a typed "aborted" terminal record — distinguishable from both a
// completed campaign and a cut-off connection — and the result endpoint
// answers with a typed 503.
func TestEventsAbortedTerminalRecord(t *testing.T) {
	svc, ts := startService(t, Config{Workers: 1})
	svc.Pause() // the point never dispatches
	code, _, body := post(t, ts, "/v1/campaigns", panicSpec)
	if code != http.StatusAccepted {
		t.Fatalf("POST: status %d", code)
	}
	var st statusJSON
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	evCh := make(chan []byte, 1)
	go func() {
		_, evBody := get(t, ts, "/v1/campaigns/"+st.ID+"/events")
		evCh <- evBody
	}()
	// Let the stream attach, then kill the server out from under it.
	time.Sleep(20 * time.Millisecond)
	svc.Close()

	evBody := <-evCh
	lines := strings.Split(strings.TrimSpace(string(evBody)), "\n")
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last event line: %v (%q)", err, string(evBody))
	}
	if !last.Final || last.State != "aborted" || last.Done != 0 || last.Total != 1 {
		t.Fatalf("terminal record = %+v, want final aborted 0/1", last)
	}

	code, res := get(t, ts, "/v1/campaigns/"+st.ID+"/result")
	if code != http.StatusServiceUnavailable || !bytes.Contains(res, []byte(`"kind":"aborted"`)) {
		t.Fatalf("result after abort: status %d body %s, want typed 503", code, res)
	}
	code, stBody := get(t, ts, "/v1/campaigns/"+st.ID)
	if code != http.StatusOK || !bytes.Contains(stBody, []byte(`"state":"aborted"`)) {
		t.Fatalf("status after abort: %d %s, want state aborted", code, stBody)
	}
}
