package metrics

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.Write(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterConcurrent(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if got := r.Counter("test_total", "a counter"); got != c {
		t.Fatal("get-or-create returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	g := r.Gauge("test_gauge", "a gauge")
	g.Inc()
	g.Inc()
	g.Dec()
	g.Add(5)
	if g.Value() != 6 {
		t.Fatalf("gauge = %d, want 6", g.Value())
	}
	g.Set(-2)
	if !strings.Contains(expose(t, r), "test_gauge -2\n") {
		t.Fatalf("exposition missing negative gauge:\n%s", expose(t, r))
	}
}

func TestHistogramBuckets(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	h := r.Histogram("test_hist", "a histogram", []float64{1, 2})
	for _, v := range []float64{0.5, 1, 1.5, 3} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 6 {
		t.Fatalf("sum = %v, want 6", h.Sum())
	}
	out := expose(t, r)
	for _, want := range []string{
		`test_hist_bucket{le="1"} 2`, // 0.5 and the boundary value 1
		`test_hist_bucket{le="2"} 3`, // cumulative
		`test_hist_bucket{le="+Inf"} 4`,
		`test_hist_sum 6`,
		`test_hist_count 4`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestVecChildrenAndEscaping(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "labeled", "route", "code")
	v.With("/v1/group", "200").Inc()
	v.With("/v1/group", "200").Inc()
	v.With(`quo"te\back`+"\n", "500").Inc()
	if v.With("/v1/group", "200").Value() != 2 {
		t.Fatal("same labels did not map to the same child")
	}
	out := expose(t, r)
	if !strings.Contains(out, `test_requests_total{code="200",route="/v1/group"} 2`) {
		t.Errorf("missing labeled sample:\n%s", out)
	}
	if !strings.Contains(out, `test_requests_total{code="500",route="quo\"te\\back\n"} 1`) {
		t.Errorf("missing escaped sample:\n%s", out)
	}
}

func TestHistogramVecMergesLabels(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	v := r.HistogramVec("test_lat_seconds", "latency", []float64{1}, "route")
	v.With("/x").Observe(0.5)
	out := expose(t, r)
	for _, want := range []string{
		`test_lat_seconds_bucket{le="1",route="/x"} 1`,
		`test_lat_seconds_bucket{le="+Inf",route="/x"} 1`,
		`test_lat_seconds_sum{route="/x"} 0.5`,
		`test_lat_seconds_count{route="/x"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// A name collision across metric types must not panic and must not
// corrupt the registered family: the loser records into a detached
// metric.
func TestTypeConflictDetaches(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	c := r.Counter("test_conflict", "first wins")
	g := r.Gauge("test_conflict", "loser")
	g.Set(99)
	c.Inc()
	out := expose(t, r)
	if !strings.Contains(out, "test_conflict 1\n") {
		t.Errorf("registered counter lost its sample:\n%s", out)
	}
	if strings.Contains(out, "99") {
		t.Errorf("detached gauge leaked into exposition:\n%s", out)
	}
}

// sampleLine is the exposition sample syntax; comment lines are # HELP
// and # TYPE.
var (
	sampleLine  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$`)
	commentLine = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?$`)
)

func TestExpositionFormatParses(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	r.Counter("a_total", "counts").Add(3)
	r.Gauge("b_gauge", "gauges").Set(7)
	r.Histogram("c_seconds", "times", nil).Observe(0.02)
	r.CounterVec("d_total", "labeled", "x").With("y").Inc()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	lines := strings.Split(strings.TrimRight(rec.Body.String(), "\n"), "\n")
	if len(lines) < 8 {
		t.Fatalf("suspiciously short exposition:\n%s", rec.Body.String())
	}
	for _, line := range lines {
		if commentLine.MatchString(line) || sampleLine.MatchString(line) {
			continue
		}
		t.Errorf("line does not parse as exposition format: %q", line)
	}
	// Families are sorted by name, so output is deterministic.
	first := strings.Index(rec.Body.String(), "a_total")
	last := strings.Index(rec.Body.String(), "d_total")
	if first < 0 || last < 0 || first > last {
		t.Errorf("families not in sorted order:\n%s", rec.Body.String())
	}
}

func TestExponentialBuckets(t *testing.T) {
	got := ExponentialBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	if len(got) != len(want) {
		t.Fatalf("ExponentialBuckets returned %d bounds, want %d", len(got), len(want))
	}
	for i := range want {
		if diff := got[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("bound %d = %g, want %g", i, got[i], want[i])
		}
	}
	if got := ExponentialBuckets(1, 2, 0); len(got) != 1 {
		t.Errorf("n=0 returned %d bounds, want clamped to 1", len(got))
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile(0.5) = %g, want 0", got)
	}

	// 10 observations per bucket: ranks land on interpolable positions.
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
		h.Observe(3)
		h.Observe(6)
	}
	cases := []struct {
		q    float64
		want float64
	}{
		{0.25, 1},    // rank 10 = exactly the top of bucket ≤1
		{0.5, 2},     // rank 20 = top of bucket ≤2
		{0.125, 0.5}, // rank 5, halfway into [0, 1]
		{1, 8},       // max resolvable bound
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("Quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}

	// A rank in the +Inf bucket is capped at the largest finite bound.
	h.Observe(100)
	if got := h.Quantile(1); got != 8 {
		t.Errorf("Quantile(1) with +Inf mass = %g, want capped at 8", got)
	}
}

// TestCounterVecWithAllocs bounds the cost of resolving an existing
// child, which the HTTP middleware does on every request: building the
// label key, and nothing per call for the escaper.
func TestCounterVecWithAllocs(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("test_requests_total", "labeled", "route", "method", "status")
	v.With("/v1/sessions/{id}/round", "POST", "200").Inc()
	allocs := testing.AllocsPerRun(100, func() {
		v.With("/v1/sessions/{id}/round", "POST", "200").Inc()
	})
	if allocs > 5 {
		t.Fatalf("With on an existing child allocates %.1f times, want ≤ 5", allocs)
	}
}
