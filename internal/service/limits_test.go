package service

import (
	"net/http"
	"strings"
	"testing"
)

// TestRequestSizeLimits: a body over maxBodyBytes gets a typed 413 on every
// POST endpoint, a batch over maxBatchItems gets one before any item is
// routed, and a 64-item batch is unaffected.
func TestRequestSizeLimits(t *testing.T) {
	_, ts, _ := testServer(t)
	tooLarge := func(t *testing.T, code int, out map[string]any, limit int) {
		t.Helper()
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413 (%v)", code, out)
		}
		if out["kind"] != "too_large" || out["limit"] != float64(limit) || out["error"] == "" {
			t.Errorf("413 body %v, want kind too_large, limit %d and an error", out, limit)
		}
	}

	huge := strings.Repeat("x", maxBodyBytes)
	for _, path := range []string{"/v1/queries", "/v1/submit-batch", "/v1/tenants"} {
		t.Run("body"+path, func(t *testing.T) {
			var out map[string]any
			code := post(t, ts, path, map[string]string{"tenant": huge, "id": huge}, &out)
			tooLarge(t, code, out, maxBodyBytes)
		})
	}

	batch := func(n int) BatchSubmitRequest {
		req := BatchSubmitRequest{Queries: make([]SubmitRequest, n)}
		for i := range req.Queries {
			req.Queries[i] = SubmitRequest{Tenant: []string{"t1", "t2", "t3", "t4"}[i%4], Query: "TPCH-Q6"}
		}
		return req
	}
	t.Run("batch items", func(t *testing.T) {
		var out map[string]any
		tooLarge(t, post(t, ts, "/v1/submit-batch", batch(maxBatchItems+1), &out), out, maxBatchItems)
		var recs []any
		if code := get(t, ts, "/v1/records", &recs); code != http.StatusOK || len(recs) != 0 {
			t.Errorf("records after a refused batch: status %d, %d records", code, len(recs))
		}
	})
	t.Run("64-item batch", func(t *testing.T) {
		var out BatchSubmitResponse
		if code := post(t, ts, "/v1/submit-batch", batch(64), &out); code != http.StatusOK {
			t.Fatalf("status %d", code)
		}
		if out.Accepted != 64 || out.Failed != 0 || len(out.Results) != 64 {
			t.Errorf("accepted %d, failed %d of %d results, want all 64 accepted",
				out.Accepted, out.Failed, len(out.Results))
		}
	})
}
