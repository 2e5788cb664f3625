// Package metrics is the repository's dependency-free instrumentation
// core: atomic counters and gauges, lock-cheap fixed-bucket histograms with
// quantile estimation, and a named registry that renders itself in the
// Prometheus text exposition format.
//
// The paper's engine is a production system ("all (possibly billions)
// embeddings may be computed on a daily basis", §III) serving live Taobao
// traffic; a reproduction that claims the same engineering properties needs
// a measurement surface to prove them on. Every layer of the repo reports
// through this package: the HTTP server's per-endpoint request/latency/
// error series, the trainers' live progress gauges, and whatever future
// perf PRs need to demonstrate their wins.
//
// Design constraints, in order:
//
//  1. Zero dependencies — the container has no Prometheus client library,
//     and the text format is simple enough not to want one.
//  2. Hot-path cost must be a handful of atomic operations: counters and
//     histograms are updated from Hogwild training loops and request
//     handlers, so there is no locking on Observe/Add, only on
//     registration and rendering (both rare).
//  3. Stable output — series render in sorted order so scrapes diff
//     cleanly and tests can assert ordering.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready to
// use, but counters are normally obtained from a Registry so they render.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down, stored as atomic bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution summary for non-negative
// observations (latencies, sizes). Observe is lock-free: one atomic add on
// the bucket, one on the count, and a CAS loop on the float sum. Bucket
// bounds are upper-inclusive, ascending; an implicit +Inf bucket catches
// overflow. Quantile estimates interpolate linearly inside the winning
// bucket, so their error is bounded by the bucket width.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; implicit +Inf appended
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// defBuckets are the latency buckets in seconds of every registry
// histogram, spanning 100µs to 10s — wide enough for both the KNN fast path
// and a shed-or-timeout tail.
var defBuckets = []float64{.0001, .00025, .0005, .001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// newHistogram validates and copies the bounds.
func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value. Values are expected non-negative; negative
// values land in the first bucket (the histogram never loses a count).
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the branch pattern
	// is predictable, which beats binary search at this size.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q clamped to [0,1]) from the bucket
// counts: find the bucket holding the rank, then interpolate linearly
// between its bounds. Estimates are monotone in q and always fall inside
// [0, highest finite bound] — the overflow bucket clamps to the top bound.
// Returns 0 when nothing has been observed.
//
// The snapshot is not atomic across buckets; under concurrent Observe the
// estimate is approximate (as every streaming quantile is), but each bucket
// count is itself consistent.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	counts := make([]uint64, len(h.buckets))
	var total uint64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, c := range counts {
		prev := cum
		cum += c
		if float64(cum) < rank || c == 0 {
			continue
		}
		if i == len(h.bounds) { // overflow bucket: clamp to the top bound
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := (rank - float64(prev)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		return lo + (hi-lo)*frac
	}
	return h.bounds[len(h.bounds)-1]
}

// Label is one name="value" pair attached to a series.
type Label struct {
	Name, Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{name, value} }

// renderLabels renders {a="b",c="d"} (sorted by name; empty for none).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// series is one sample stream: a metric instance plus its rendered labels.
type series struct {
	labels string // rendered {…} or ""
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups every series sharing a metric name, with one HELP/TYPE
// header.
type family struct {
	name, help, typ string
	mu              sync.Mutex
	children        map[string]*series // keyed by rendered labels
}

// Registry holds named metrics and renders them in the Prometheus text
// format. The zero value is not usable; call NewRegistry. All methods are
// safe for concurrent use. Registration is idempotent: asking for an
// existing name+labels returns the existing instrument, so package-level
// wiring can run more than once (re-registering under a different metric
// type panics — that is a programming error, not a runtime condition).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var nameRe = func() func(string) bool {
	ok := func(c byte, first bool) bool {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			return true
		case c >= '0' && c <= '9':
			return !first
		}
		return false
	}
	return func(s string) bool {
		if s == "" {
			return false
		}
		for i := 0; i < len(s); i++ {
			if !ok(s[i], i == 0) {
				return false
			}
		}
		return true
	}
}()

// familyFor returns (creating if needed) the family, panicking on a name or
// type clash.
func (r *Registry) familyFor(name, help, typ string) *family {
	if !nameRe(name) {
		panic("metrics: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, children: make(map[string]*series)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", name, f.typ, typ))
	}
	return f
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.familyFor(name, help, "counter")
	f.mu.Lock()
	defer f.mu.Unlock()
	key := renderLabels(labels)
	if s, ok := f.children[key]; ok {
		return s.c
	}
	s := &series{labels: key, c: &Counter{}}
	f.children[key] = s
	return s.c
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.familyFor(name, help, "gauge")
	f.mu.Lock()
	defer f.mu.Unlock()
	key := renderLabels(labels)
	if s, ok := f.children[key]; ok {
		return s.g
	}
	s := &series{labels: key, g: &Gauge{}}
	f.children[key] = s
	return s.g
}

// GaugeFunc registers a pull-based gauge whose value is read at render
// time. Re-registering the same name+labels REPLACES the function: a new
// training run wiring itself into a long-lived registry takes over the
// series from the previous run.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.familyFor(name, help, "gauge")
	f.mu.Lock()
	defer f.mu.Unlock()
	key := renderLabels(labels)
	if s, ok := f.children[key]; ok {
		if s.g != nil {
			panic(fmt.Sprintf("metrics: %s%s registered as plain gauge, requested as func", name, key))
		}
		s.gf = fn
		return
	}
	f.children[key] = &series{labels: key, gf: fn}
}

// Histogram returns the histogram for name+labels, creating it with the
// latency buckets defBuckets on first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	f := r.familyFor(name, help, "histogram")
	f.mu.Lock()
	defer f.mu.Unlock()
	key := renderLabels(labels)
	if s, ok := f.children[key]; ok {
		return s.h
	}
	s := &series{labels: key, h: newHistogram(defBuckets)}
	f.children[key] = s
	return s.h
}

// Value returns the current value of the series with the given name and
// labels: counters as float64, gauges (incl. funcs) as-is, histograms as
// their observation count. ok is false when no such series exists.
func (r *Registry) Value(name string, labels ...Label) (v float64, ok bool) {
	r.mu.Lock()
	f, found := r.families[name]
	r.mu.Unlock()
	if !found {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s, found := f.children[renderLabels(labels)]
	if !found {
		return 0, false
	}
	switch {
	case s.c != nil:
		return float64(s.c.Value()), true
	case s.g != nil:
		return s.g.Value(), true
	case s.gf != nil:
		return s.gf(), true
	case s.h != nil:
		return float64(s.h.Count()), true
	}
	return 0, false
}

// WritePrometheus renders every registered series in the text exposition
// format: families sorted by name, children sorted by label string, one
// HELP/TYPE header per family. The output is deterministic for a fixed set
// of registered series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		children := make([]*series, 0, len(f.children))
		for _, s := range f.children {
			children = append(children, s)
		}
		f.mu.Unlock()
		sort.Slice(children, func(i, j int) bool { return children[i].labels < children[j].labels })

		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range children {
			switch {
			case s.c != nil:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.g != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value()))
			case s.gf != nil:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatFloat(s.gf()))
			case s.h != nil:
				writeHistogram(&b, f.name, s)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders the _bucket/_sum/_count triplet of one histogram
// series, merging the le label into the series labels.
func writeHistogram(b *strings.Builder, name string, s *series) {
	h := s.h
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(s.labels, formatFloat(bound)), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, withLE(s.labels, "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, s.labels, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, s.labels, cum)
}

// withLE splices le="bound" into a rendered label set.
func withLE(labels, bound string) string {
	le := `le="` + bound + `"`
	if labels == "" {
		return "{" + le + "}"
	}
	return labels[:len(labels)-1] + "," + le + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler returns an http.Handler serving the registry in the text
// exposition format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
