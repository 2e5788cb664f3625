package metrics

import (
	"io"
	"testing"
	"time"
)

// The instrumentation hot path must stay a handful of atomic ops: these
// benchmarks keep the per-event cost visible so a regression (a lock on
// Observe, an allocation on Inc) cannot land silently. The CI bench smoke
// job compiles and runs them once.

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DefBuckets())
	b.RunParallel(func(pb *testing.PB) {
		v := 0.0001
		for pb.Next() {
			h.Observe(v)
			v *= 1.7
			if v > 20 {
				v = 0.0001
			}
		}
	})
}

func BenchmarkHistogramObserveSince(b *testing.B) {
	h := newHistogram(nil)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		h.ObserveSince(start)
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for _, path := range []string{"/v1/similar", "/v1/coldstart/item", "/v1/coldstart/user", "/healthz", "/v1/stats"} {
		r.Counter("http_requests_total", "h", L("path", path), L("code", "2xx")).Inc()
		r.Histogram("http_request_duration_seconds", "h", nil, L("path", path)).Observe(0.01)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
