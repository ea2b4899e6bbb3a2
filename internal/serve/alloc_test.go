package serve

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
)

// TestAllocFreeMarginalReadPath is the hot-path allocation gate: after
// warmup (cache populated, pools primed), a /v1/marginal cache hit —
// parse, cache lookup, envelope encode — performs zero heap allocations.
// The response writer is exercised separately; this measures everything
// up to the bytes being ready to write.
func TestAllocFreeMarginalReadPath(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool fast paths; allocation accounting differs")
	}
	card := []int{2, 3, 2, 4}
	s := newTestServer(t, card, coalesceTestRows(), nil)
	ctx := context.Background()

	for _, varsRaw := range []string{"0", "0,1", "1,2,3"} {
		// Warmup: first call misses into the fused scan and populates the
		// epoch-versioned cache; it also grows the pooled buffers to size.
		rb := getRespBuf()
		if err := s.serveMarginalFast(ctx, varsRaw, rb); err != nil {
			t.Fatalf("warmup vars=%s: %v", varsRaw, err)
		}
		putRespBuf(rb)

		allocs := testing.AllocsPerRun(200, func() {
			rb := getRespBuf()
			if err := s.serveMarginalFast(ctx, varsRaw, rb); err != nil {
				t.Errorf("vars=%s: %v", varsRaw, err)
			}
			putRespBuf(rb)
		})
		if allocs != 0 {
			t.Errorf("vars=%s: %.1f allocs per cache-hit marginal, want 0", varsRaw, allocs)
		}
	}
}

// TestAllocFreeEpochEncoder gates the /v1/epoch hand-rolled envelope:
// snapshot pin, stat reads, and encode allocate nothing after warmup.
func TestAllocFreeEpochEncoder(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector disables sync.Pool fast paths; allocation accounting differs")
	}
	s := newTestServer(t, []int{2, 3, 2}, testRows, nil)
	ctx := context.Background()
	rb := getRespBuf()
	if err := s.serveEpochFast(ctx, "", rb); err != nil {
		t.Fatal(err)
	}
	putRespBuf(rb)

	allocs := testing.AllocsPerRun(200, func() {
		rb := getRespBuf()
		if err := s.serveEpochFast(ctx, "", rb); err != nil {
			t.Error(err)
		}
		putRespBuf(rb)
	})
	if allocs != 0 {
		t.Errorf("%.1f allocs per epoch request, want 0", allocs)
	}
}

// jsonFloatCases are the TestJSONFloatParity cases; FuzzAppendJSONFloat
// seeds its corpus from them.
var jsonFloatCases = []float64{
	0, 1, -1, 0.5, -0.5, 1.0 / 3.0, 0.1 + 0.2, 2.0 / 6.0,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 5e-324, -5e-324,
	1e20, 9.99e20, 1e21, -1e21, 1.5e22, 1e300, -1e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64,
	123456789.123456, 0.0001, 6.0, 0.16666666666666666,
}

// TestJSONFloatParity locks the hand-rolled float encoder to
// encoding/json's exact output across the representable regimes: plain
// decimals, shortest-form fractions, the %e thresholds in both directions,
// exponent contraction, subnormals, and extremes.
func TestJSONFloatParity(t *testing.T) {
	for _, f := range jsonFloatCases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(appendJSONFloat(nil, f)); got != string(want) {
			t.Errorf("appendJSONFloat(%g) = %q, want %q (encoding/json)", f, got, want)
		}
	}
}

// TestFastPathMatchesSlowPathBytes forces the encoding/json slow path via
// a URL escape (the fast path refuses undecoded queries) and asserts the
// hand-rolled fast path produces byte-identical bodies for the same query.
func TestFastPathMatchesSlowPathBytes(t *testing.T) {
	card := []int{2, 3, 2, 4}
	s := newTestServer(t, card, coalesceTestRows(), nil)

	pairs := [][2]string{
		{"/v1/marginal?vars=0", "/v1/marginal?vars=%30"},
		{"/v1/marginal?vars=0,1", "/v1/marginal?vars=0%2C1"},
		{"/v1/marginal?vars=3,1", "/v1/marginal?vars=3%2C1"},
		{"/v1/mi?i=0&j=1", "/v1/mi?i=%30&j=1"},
		{"/v1/mi?i=3&j=2", "/v1/mi?i=%33&j=2"},
	}
	for _, p := range pairs {
		fast, slow := getBody(t, s, p[0]), getBody(t, s, p[1])
		if fast != slow {
			t.Errorf("%s: fast body %q != slow body %q", p[0], fast, slow)
		}
	}

	// /v1/epoch has no slow trigger; compare against the encoding/json
	// pipeline invoked directly on the same handler body.
	fast := getBody(t, s, "/v1/epoch")
	w := httptest.NewRecorder()
	s.handle("epoch", s.handleEpoch).ServeHTTP(w, httptest.NewRequest("GET", "/v1/epoch", nil))
	if slow := w.Body.String(); fast != slow {
		t.Errorf("/v1/epoch: fast body %q != slow body %q", fast, slow)
	}

	// Error envelopes produced by the fast path's parser must match the
	// slow parser's messages byte for byte as well.
	errPairs := [][2]string{
		{"/v1/marginal?vars=x", "/v1/marginal?vars=%78"},
		{"/v1/marginal?vars=9", "/v1/marginal?vars=%39"},
		{"/v1/marginal?vars=1,1", "/v1/marginal?vars=1%2C1"},
		{"/v1/mi?i=1&j=1", "/v1/mi?i=%31&j=1"},
	}
	for _, p := range errPairs {
		reqFast := httptest.NewRequest("GET", p[0], nil)
		reqSlow := httptest.NewRequest("GET", p[1], nil)
		wFast, wSlow := httptest.NewRecorder(), httptest.NewRecorder()
		s.Handler().ServeHTTP(wFast, reqFast)
		s.Handler().ServeHTTP(wSlow, reqSlow)
		if wFast.Body.String() != wSlow.Body.String() || wFast.Code != wSlow.Code {
			t.Errorf("%s: fast error %d %q != slow error %d %q",
				p[0], wFast.Code, wFast.Body.String(), wSlow.Code, wSlow.Body.String())
		}
	}
}
