// Package metrics is a dependency-free metrics registry for the
// serving layer: atomic counters, gauges, and fixed-bucket histograms
// with Prometheus text exposition (format version 0.0.4), built on the
// standard library alone so the module stays dependency-free.
//
// A Registry hands out metrics by name with get-or-create semantics —
// asking twice for the same name returns the same instance, so
// packages can share a registry without coordinating initialization
// order. All metric operations are safe for concurrent use and
// lock-free on the hot path (sync/atomic); the registry lock is taken
// only on creation and exposition.
//
// Registration conflicts (same name, different metric type) do not
// panic — this code backs a long-running server — and instead return a
// detached metric that records normally but is never exposed. That
// keeps a programming error from tearing the process down while still
// being visible (the series is missing from /metrics).
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing count.
type Counter struct {
	n atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds 1.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts 1.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap on its bit
// pattern.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		upd := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, upd) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram counts observations into fixed buckets. Buckets are
// cumulative at exposition time, per the Prometheus convention: the
// series for upper bound u counts observations ≤ u, and an implicit
// +Inf bucket catches the rest.
type Histogram struct {
	uppers []float64
	counts []atomic.Uint64 // len(uppers)+1; the last is the +Inf bucket
	sum    atomicFloat
}

// newHistogram copies and sorts the upper bounds.
func newHistogram(uppers []float64) *Histogram {
	u := make([]float64, len(uppers))
	copy(u, uppers)
	slices.Sort(u)
	return &Histogram{uppers: u, counts: make([]atomic.Uint64, len(u)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound is ≥ v; NaN falls through to +Inf.
	i, _ := slices.BinarySearch(h.uppers, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-quantile (q in [0, 1]) from the bucket
// counts by linear interpolation inside the bucket holding the target
// rank, the standard Prometheus histogram_quantile estimate. The
// lowest bucket interpolates from 0; a rank landing in the +Inf bucket
// returns the largest finite upper bound (the estimate cannot exceed
// what the buckets resolve). An empty histogram returns 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.Count()
	if total == 0 || len(h.uppers) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, u := range h.uppers {
		n := float64(h.counts[i].Load())
		if cum+n >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.uppers[i-1]
			}
			if n == 0 {
				return u
			}
			return lower + (u-lower)*((rank-cum)/n)
		}
		cum += n
	}
	return h.uppers[len(h.uppers)-1]
}

// write renders the cumulative bucket, sum, and count series. extra is
// the pre-rendered label pairs to merge into every series ("" for a
// plain histogram).
func (h *Histogram) write(w io.Writer, name, extra string) error {
	cum := uint64(0)
	for i, u := range h.uppers {
		cum += h.counts[i].Load()
		if err := writeSample(w, name+"_bucket", mergeLabels(extra, `le="`+formatFloat(u)+`"`), strconv.FormatUint(cum, 10)); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.uppers)].Load()
	if err := writeSample(w, name+"_bucket", mergeLabels(extra, `le="+Inf"`), strconv.FormatUint(cum, 10)); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", extra, formatFloat(h.Sum())); err != nil {
		return err
	}
	return writeSample(w, name+"_count", extra, strconv.FormatUint(cum, 10))
}

// DefBuckets are latency buckets in seconds, matching the Prometheus
// client default.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// ExponentialBuckets returns n upper bounds starting at start, each
// factor times the previous — the standard way to cover a wide latency
// range with bounded series count. start must be positive and factor
// greater than 1; n is clamped to at least 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// GainBuckets cover per-round aggregated learning gains, which scale
// with roster size rather than wall-clock.
var GainBuckets = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 1000}

// CounterVec is a family of counters distinguished by label values.
type CounterVec struct {
	mu     sync.Mutex
	labels []string
	kids   map[string]*Counter
}

// With returns the child counter for the given label values
// (positional, matching the label names the vec was created with). A
// value-count mismatch returns a detached counter rather than
// panicking.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		return &Counter{}
	}
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.kids[key]
	if !ok {
		c = &Counter{}
		v.kids[key] = c
	}
	return c
}

// HistogramVec is a family of histograms distinguished by label values.
type HistogramVec struct {
	mu     sync.Mutex
	labels []string
	uppers []float64
	kids   map[string]*Histogram
}

// With returns the child histogram for the given label values. A
// value-count mismatch returns a detached histogram rather than
// panicking.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		return newHistogram(v.uppers)
	}
	key := labelKey(v.labels, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	h, ok := v.kids[key]
	if !ok {
		h = newHistogram(v.uppers)
		v.kids[key] = h
	}
	return h
}

// labelKey renders label pairs sorted by label name, ready to splice
// into an exposition line: `a="x",b="y"`.
func labelKey(labels, values []string) string {
	pairs := make([]string, len(labels))
	for i, l := range labels {
		pairs[i] = l + `="` + escapeLabel(values[i]) + `"`
	}
	slices.Sort(pairs)
	return strings.Join(pairs, ",")
}

// mergeLabels joins two pre-rendered label fragments, keeping the
// whole set sorted by label name (le sorts like any other label).
func mergeLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	}
	pairs := append(strings.Split(a, ","), strings.Split(b, ",")...)
	slices.Sort(pairs)
	return strings.Join(pairs, ",")
}

// labelEscaper escapes a label value per the exposition format. A
// Replacer is safe for concurrent use and costly to build, so there is
// one per process.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// formatFloat renders a sample value; infinities use the exposition
// spelling.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// writeSample emits one exposition line.
func writeSample(w io.Writer, name, labels, value string) error {
	if labels == "" {
		_, err := fmt.Fprintf(w, "%s %s\n", name, value)
		return err
	}
	_, err := fmt.Fprintf(w, "%s{%s} %s\n", name, labels, value)
	return err
}

// entry is one registered metric family.
type entry struct {
	name, help, typ string
	// self is the live metric (*Counter, *Gauge, *Histogram,
	// *CounterVec, *HistogramVec), both for get-or-create returns and
	// for exposition.
	self any
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// lookup returns the entry registered under name, installing the one
// built by mk on first use. The boolean reports whether the entry's
// metric has the wanted dynamic type.
func (r *Registry) lookup(name, help, typ string, mk func() any) (any, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		//peerlint:allow lockheld — mk is a tiny allocation closure; holding the lock keeps first-use registration atomic
		e = &entry{name: name, help: help, typ: typ, self: mk()}
		r.entries[name] = e
	}
	return e.self, e.typ == typ
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	self, ok := r.lookup(name, help, "counter", func() any { return &Counter{} })
	if c, isCounter := self.(*Counter); ok && isCounter {
		return c
	}
	return &Counter{} // conflict: detached
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	self, ok := r.lookup(name, help, "gauge", func() any { return &Gauge{} })
	if g, isGauge := self.(*Gauge); ok && isGauge {
		return g
	}
	return &Gauge{}
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds if needed (nil means DefBuckets).
// An existing histogram keeps its original buckets.
func (r *Registry) Histogram(name, help string, uppers []float64) *Histogram {
	if uppers == nil {
		uppers = DefBuckets
	}
	self, ok := r.lookup(name, help, "histogram", func() any { return newHistogram(uppers) })
	if h, isHist := self.(*Histogram); ok && isHist {
		return h
	}
	return newHistogram(uppers)
}

// CounterVec returns the labeled counter family registered under name,
// creating it if needed. An existing family keeps its original label
// names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	self, ok := r.lookup(name, help, "counter", func() any {
		return &CounterVec{labels: labels, kids: make(map[string]*Counter)}
	})
	if v, isVec := self.(*CounterVec); ok && isVec {
		return v
	}
	return &CounterVec{labels: labels, kids: make(map[string]*Counter)}
}

// HistogramVec returns the labeled histogram family registered under
// name, creating it with the given buckets if needed (nil means
// DefBuckets).
func (r *Registry) HistogramVec(name, help string, uppers []float64, labels ...string) *HistogramVec {
	if uppers == nil {
		uppers = DefBuckets
	}
	self, ok := r.lookup(name, help, "histogram", func() any {
		return &HistogramVec{labels: labels, uppers: uppers, kids: make(map[string]*Histogram)}
	})
	if v, isVec := self.(*HistogramVec); ok && isVec {
		return v
	}
	return &HistogramVec{labels: labels, uppers: uppers, kids: make(map[string]*Histogram)}
}

// Write renders every registered family in the text exposition
// format, families sorted by name and series sorted by label values,
// so output is deterministic for tests and diffing.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	entries := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	slices.SortFunc(entries, func(a, b *entry) int { return strings.Compare(a.name, b.name) })

	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.name, escapeHelp(e.help), e.name, e.typ); err != nil {
			return err
		}
		if err := writeEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

// writeEntry renders one family's sample lines.
func writeEntry(w io.Writer, e *entry) error {
	switch m := e.self.(type) {
	case *Counter:
		return writeSample(w, e.name, "", strconv.FormatUint(m.Value(), 10))
	case *Gauge:
		return writeSample(w, e.name, "", strconv.FormatInt(m.Value(), 10))
	case *Histogram:
		return m.write(w, e.name, "")
	case *CounterVec:
		m.mu.Lock()
		keys := sortedKeys(m.kids)
		kids := make([]*Counter, len(keys))
		for i, k := range keys {
			kids[i] = m.kids[k]
		}
		m.mu.Unlock()
		for i, k := range keys {
			if err := writeSample(w, e.name, k, strconv.FormatUint(kids[i].Value(), 10)); err != nil {
				return err
			}
		}
		return nil
	case *HistogramVec:
		m.mu.Lock()
		keys := sortedKeys(m.kids)
		kids := make([]*Histogram, len(keys))
		for i, k := range keys {
			kids[i] = m.kids[k]
		}
		m.mu.Unlock()
		for i, k := range keys {
			if err := kids[i].write(w, e.name, k); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("metrics: unknown metric type %T for %s", e.self, e.name)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// helpEscaper escapes a help string per the exposition format.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp escapes a help string per the exposition format.
func escapeHelp(h string) string { return helpEscaper.Replace(h) }

// Handler returns an http.Handler serving the exposition text — mount
// it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var b strings.Builder
		if err := r.Write(&b); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = io.WriteString(w, b.String())
	})
}
