package metrics

import (
	"math"
	"math/rand"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// ---- Histogram properties ----

// Quantile estimates must always fall inside the recorded bucket range:
// for values drawn from [0, maxBound) every quantile lies in [0, top
// finite bound], and for values confined to a single bucket the estimate
// lies inside that bucket's [lower, upper] bounds.
func TestHistogramQuantileWithinBounds(t *testing.T) {
	bounds := []float64{1, 2, 4, 8, 16}
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		h := newHistogram(bounds)
		for i := 0; i < 500; i++ {
			h.Observe(r.Float64() * 16)
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := h.Quantile(q)
			if v < 0 || v > 16 {
				t.Fatalf("trial %d: Quantile(%.2f) = %v out of [0,16]", trial, q, v)
			}
		}
	}

	// All mass in the (2,4] bucket: quantiles must interpolate inside it.
	h := newHistogram(bounds)
	for i := 0; i < 100; i++ {
		h.Observe(3)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if v := h.Quantile(q); v < 2 || v > 4 {
			t.Fatalf("single-bucket Quantile(%.2f) = %v, want within (2,4]", q, v)
		}
	}

	// Overflow values clamp to the top finite bound.
	h = newHistogram(bounds)
	h.Observe(1e9)
	if v := h.Quantile(0.5); v != 16 {
		t.Fatalf("overflow Quantile = %v, want clamp to 16", v)
	}
}

// Quantile estimates are monotone non-decreasing in q, for arbitrary
// bucket occupancies.
func TestHistogramQuantileMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		h := newHistogram([]float64{0.5, 1, 3, 7, 20, 100})
		n := 1 + r.Intn(300)
		for i := 0; i < n; i++ {
			h.Observe(math.Abs(r.NormFloat64()) * 10)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0001; q += 0.01 {
			v := h.Quantile(q)
			if v < prev {
				t.Fatalf("trial %d: Quantile(%v)=%v < Quantile(prev)=%v", trial, q, v, prev)
			}
			prev = v
		}
	}
}

// Counts are conserved under concurrent Observe: N goroutines × M
// observations leave exactly N*M counts in the buckets, and the exact sum
// (each value is 1.0, exactly representable in any summation order). Run
// with -race in CI.
func TestHistogramConcurrentConservation(t *testing.T) {
	const goroutines, perG = 16, 2000
	h := newHistogram([]float64{0.5, 1, 2})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(1.0)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*perG {
		t.Fatalf("Count = %d, want %d", got, goroutines*perG)
	}
	var inBuckets uint64
	for i := range h.buckets {
		inBuckets += h.buckets[i].Load()
	}
	if inBuckets != goroutines*perG {
		t.Fatalf("bucket total = %d, want %d", inBuckets, goroutines*perG)
	}
	if got := h.Sum(); got != goroutines*perG {
		t.Fatalf("Sum = %v, want %d", got, goroutines*perG)
	}
	// Every observation was 1.0, which lands in the (0.5,1] bucket.
	if got := h.buckets[1].Load(); got != goroutines*perG {
		t.Fatalf("bucket[1] = %d, want all %d observations", got, goroutines*perG)
	}
}

// Value reads the counter while writers add to it: every read is a count
// some prefix of the adds reached, so reads never go down, and the last one
// sees them all. Under -race this also fails if Value stops reading
// atomically, which no other test here would notice.
func TestCounterValueReadBesideWriters(t *testing.T) {
	const writers, perW = 4, 5000
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for last, running := uint64(0), true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		v := c.Value()
		if v < last {
			t.Fatalf("Value went from %d to %d", last, v)
		}
		last = v
	}
	if got := c.Value(); got != writers*perW {
		t.Fatalf("Value = %d, want %d", got, writers*perW)
	}
}

func TestHistogramEmptyAndValidation(t *testing.T) {
	h := newHistogram(defBuckets)
	if v := h.Quantile(0.5); v != 0 {
		t.Fatalf("empty histogram Quantile = %v, want 0", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds did not panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

// ---- Registry ----

func TestRegistryIdempotentAndTypeClash(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "help")
	c1.Add(3)
	if c2 := r.Counter("x_total", "help"); c2 != c1 || c2.Value() != 3 {
		t.Fatal("re-registration did not return the existing counter")
	}
	a := r.Counter("lab_total", "h", L("path", "/a"))
	b := r.Counter("lab_total", "h", L("path", "/b"))
	if a == b {
		t.Fatal("distinct labels shared a counter")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type clash did not panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestRegistryValue(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "h", L("k", "v")).Add(7)
	r.Gauge("g", "h").Set(2.5)
	r.GaugeFunc("gf", "h", func() float64 { return 9 })
	r.Histogram("h_seconds", "h").Observe(0.1)

	for _, tc := range []struct {
		name   string
		labels []Label
		want   float64
	}{
		{"c_total", []Label{L("k", "v")}, 7},
		{"g", nil, 2.5},
		{"gf", nil, 9},
		{"h_seconds", nil, 1},
	} {
		got, ok := r.Value(tc.name, tc.labels...)
		if !ok || got != tc.want {
			t.Fatalf("Value(%s) = %v,%v want %v", tc.name, got, ok, tc.want)
		}
	}
	if _, ok := r.Value("nope"); ok {
		t.Fatal("Value found an unregistered metric")
	}
}

// GaugeFunc re-registration replaces the function (a fresh training run
// takes over the series).
func TestGaugeFuncReplaces(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("run_pairs", "h", func() float64 { return 1 })
	r.GaugeFunc("run_pairs", "h", func() float64 { return 2 })
	if v, _ := r.Value("run_pairs"); v != 2 {
		t.Fatalf("replaced GaugeFunc reads %v, want 2", v)
	}
}

// ---- Exposition format ----

// sampleLine matches one Prometheus text-format sample.
var sampleLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[-+]?(Inf|[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?))$`)

func TestWritePrometheusFormatAndOrdering(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b help", L("path", "/x")).Add(2)
	r.Counter("b_total", "b help", L("path", "/a")).Inc()
	r.Gauge("a_gauge", "a help").Set(1.25)
	h := r.Histogram("lat_seconds", "latency")
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	var samples, comments []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			comments = append(comments, line)
			continue
		}
		samples = append(samples, line)
		if !sampleLine.MatchString(line) {
			t.Errorf("invalid sample line: %q", line)
		}
	}
	if len(comments) < 3 || len(samples) < 8 {
		t.Fatalf("unexpectedly small output:\n%s", out)
	}

	// Families render sorted: a_gauge before b_total before lat_seconds,
	// and b_total's children sorted by label.
	for _, pair := range [][2]string{
		{"a_gauge 1.25", `b_total{path="/a"} 1`},
		{`b_total{path="/a"} 1`, `b_total{path="/x"} 2`},
		{`b_total{path="/x"} 2`, `lat_seconds_bucket{le="0.1"} 1`},
		{`lat_seconds_bucket{le="+Inf"} 3`, "lat_seconds_sum 5.55"},
		{"lat_seconds_sum 5.55", "lat_seconds_count 3"},
	} {
		i, j := strings.Index(out, pair[0]), strings.Index(out, pair[1])
		if i < 0 || j < 0 || i > j {
			t.Fatalf("ordering: %q (at %d) must precede %q (at %d) in:\n%s", pair[0], i, pair[1], j, out)
		}
	}

	// Rendering is deterministic.
	var sb2 strings.Builder
	if err := r.WritePrometheus(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Fatal("two renders of an unchanged registry differ")
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", L("v", "a\"b\\c\nd")).Inc()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("escaping wrong:\n%s", sb.String())
	}
}

func TestInvalidMetricNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("bad metric name did not panic")
		}
	}()
	r.Counter("bad-name", "h")
}
