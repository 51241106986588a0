package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// smallSizes keep each workload's shape (and its checks) at a size a test
// runs in seconds. The score-plane regimes differ from the full sizes'.
var smallSizes = sizes{
	adhocRows: 2000, adhocAnswers: 200,
	churnRows: 2000, churnCut: 250000, churnBatch: 4,
	round:     10,
	shardRows: 300,
}

var e2eNames = []string{"setup_s", "throughput_ops_s", "query_p50_ms", "query_p90_ms", "hit_p50_ms", "miss_p50_ms", "mutate_p50_ms", "live_heap_mb"}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), w, smallSizes, 3, 0.3, traced, t.TempDir(), t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := e2eNames
			if traced {
				want = nil
				for _, m := range perLayer {
					want = append(want, m.name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.name, traced, name)
				} else if !traced && m.Value <= 0 {
					t.Errorf("%s: %s = %g, want > 0", w.name, name, m.Value)
				}
			}
		}
	}
}

// corruptValues adds 1 to the selection value of every third query
// response.
func corruptValues(next http.Handler) http.Handler {
	n := 0
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/query/") {
			next.ServeHTTP(w, r)
			return
		}
		n++
		rec := httptest.NewRecorder()
		next.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if n%3 == 0 && rec.Code == http.StatusOK {
			var resp map[string]interface{}
			if err := json.Unmarshal(body, &resp); err == nil {
				if sel, ok := resp["selection"].(map[string]interface{}); ok {
					sel["value"] = sel["value"].(float64) + 1
					body, _ = json.Marshal(resp)
				}
			}
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(bytes.Clone(body))
	})
}

func TestCorruptedResponsesCountAsFailed(t *testing.T) {
	w, _ := findWorkload("adhoc")
	b := newBench(context.Background(), smallSizes, 5, false, t.TempDir())
	// Set-up must pass, so corruption starts with the timed phase.
	b.wrap = func(next http.Handler) http.Handler {
		c := corruptValues(next)
		return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			if b.timed.Load() {
				c.ServeHTTP(rw, r)
				return
			}
			next.ServeHTTP(rw, r)
		})
	}
	res, err := b.run(w, 0.3, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 || res.Failed >= res.Attempted {
		t.Fatalf("failed=%d of %d attempted; want some but not all", res.Failed, res.Attempted)
	}
	// A corrupted miss fails the oracle; a corrupted repeat no longer
	// equals the checked miss it was served from.
	for msg := range b.failures {
		if !strings.Contains(msg, "reported value") && !strings.Contains(msg, "differs from the checked miss") {
			t.Errorf("unexpected failure: %s", msg)
		}
	}
}
