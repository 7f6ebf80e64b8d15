// Focused fault-machinery coverage: circuit-breaker half-open recovery
// and hedged-dispatch loser cancellation, exercised deliberately rather
// than incidentally by the churn integration tests.
package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jrpm"
	"jrpm/internal/fleet"
)

// failFirst rejects the first n shard requests with a 500, then serves
// normally — a worker that is sick and then recovers.
func failFirst(n int32) func(http.Handler) http.Handler {
	var count int32
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards") {
				if atomic.AddInt32(&count, 1) <= n {
					http.Error(w, `{"error":"injected failure"}`, http.StatusInternalServerError)
					return
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestClusterBreakerHalfOpenRecovery: consecutive failures open the
// breaker; after the cooldown the worker gets a half-open probe, and a
// recovered worker wins the sweep — no local fallback, results
// byte-identical.
func TestClusterBreakerHalfOpenRecovery(t *testing.T) {
	src, data := recordWorkload(t, "Huffman")
	cfgs := gridConfigs(4)
	want := localRows(t, src, data, cfgs)

	srv, _ := newTestWorker(t, failFirst(2))
	coord := New(Options{
		Membership:           fleet.Static{srv.URL},
		ShardConfigs:         2,
		MaxAttempts:          10,
		RetryBase:            5 * time.Millisecond,
		RetryMax:             20 * time.Millisecond,
		BreakerThreshold:     2,
		BreakerCooldown:      40 * time.Millisecond,
		HedgeAfter:           -1,
		Sentinels:            -1,
		DisableLocalFallback: true, // recovery must come from the worker itself
	})
	res, err := coord.Sweep(context.Background(), Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, res.Outcomes[0]), canonical(t, want)) {
		t.Fatal("recovered sweep diverged from local sweep")
	}
	if res.Metrics.BreakerOpens < 1 {
		t.Errorf("breaker opens = %d, want >= 1 (two consecutive failures at threshold 2)", res.Metrics.BreakerOpens)
	}
	if res.Metrics.Failures < 2 {
		t.Errorf("failures = %d, want >= 2", res.Metrics.Failures)
	}
	if res.Metrics.LocalShards != 0 {
		t.Errorf("local shards = %d, want 0 (the half-open probe must recover the worker)", res.Metrics.LocalShards)
	}
}

// slowUntilCanceled delays shard requests by d, but aborts immediately
// (counting the cancellation) when the coordinator cancels the request
// — the observable fate of a hedge loser. The body is drained before
// sleeping: the server only detects a client abort once the request
// body has been consumed.
func slowUntilCanceled(d time.Duration, canceled *int32) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/shards") {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					panic(http.ErrAbortHandler)
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
				select {
				case <-time.After(d):
				case <-r.Context().Done():
					atomic.AddInt32(canceled, 1)
					panic(http.ErrAbortHandler)
				}
			}
			next.ServeHTTP(w, r)
		})
	}
}

// TestClusterHedgeLoserCanceled: a straggling shard is hedged onto a
// second worker; when the fast copy wins, the coordinator must cancel
// the slow loser's in-flight request (observed server-side as a
// canceled request context), and the winning rows must be the local
// rows.
func TestClusterHedgeLoserCanceled(t *testing.T) {
	src, data := recordWorkload(t, "Huffman")
	cfgs := gridConfigs(4)
	want := localRows(t, src, data, cfgs)

	var canceled int32
	slowSrv, _ := newTestWorker(t, slowUntilCanceled(5*time.Second, &canceled))
	fastSrv, _ := newTestWorker(t, nil)
	coord := New(Options{
		// Trace affinity puts the single trace's shards on the slow
		// worker; the fast worker only sees the sentinel until hedging
		// re-dispatches the stragglers.
		Membership:       fleet.Static{slowSrv.URL, fastSrv.URL},
		ShardConfigs:     4,
		HedgeAfter:       30 * time.Millisecond,
		HedgeInterval:    5 * time.Millisecond,
		DisableStealing:  true, // force the hedge path, not the stealing path
		ShardTimeout:     30 * time.Second,
		BreakerThreshold: 100, // keep the loser's cancellation out of the breaker
	})
	res, err := coord.Sweep(context.Background(), Grid{
		Traces:  []GridTrace{{Name: "Huffman", Source: src, Data: data}},
		Configs: cfgs,
		Opts:    jrpm.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canonical(t, res.Outcomes[0]), canonical(t, want)) {
		t.Fatal("hedged sweep diverged from local sweep")
	}
	if res.Metrics.Hedged < 1 {
		t.Errorf("hedges = %d, want >= 1", res.Metrics.Hedged)
	}
	// The server observes the aborted connection asynchronously, a few
	// milliseconds after the coordinator's client-side cancel returns.
	deadline := time.Now().Add(2 * time.Second)
	for atomic.LoadInt32(&canceled) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := atomic.LoadInt32(&canceled); n < 1 {
		t.Errorf("loser cancellations observed = %d, want >= 1 (winner must cancel the straggler)", n)
	}
}
