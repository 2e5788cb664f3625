package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sisg/internal/knn"
	"sisg/internal/model"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 = root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since recorder creation
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory and writes them out when the benchmark
// ends. It records from the benchmark's own files, around the calls into
// each layer's public functions; nothing inside the program is touched.
// While disabled (the untraced half of a traced run) begin hands out the
// zero id and end drops it, so one process can time both halves.
type recorder struct {
	enabled atomic.Bool
	nextID  atomic.Uint64
	epoch   time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id, 0 while recording is off.
func (r *recorder) begin() (id uint64, start time.Time) {
	if r == nil || !r.enabled.Load() {
		return 0, time.Time{}
	}
	return r.nextID.Add(1), time.Now()
}

func (r *recorder) end(id, parent, req uint64, name string, start time.Time) {
	if id == 0 {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(r.epoch)), End: int64(time.Since(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the spans recorded so far, in id order.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, for every span, its duration minus the part of that
// interval its direct children cover (overlapping children are merged
// first, so two children running side by side are not subtracted twice).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, hi := int64(0), s.Start
		for _, c := range cs {
			lo, end := c.Start, c.End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// traceHeader carries the client span's id to the server-side middleware,
// so the handler span can name the span that caused it.
const traceHeader = "X-Bench-Span"

type spanKey struct{}

// spanRef is what travels in the request context: the current span and the
// request it belongs to.
type spanRef struct{ id, req uint64 }

// traceMiddleware wraps Server.Handler() in a "server.handler" span whose
// parent is the client span named in the request header.
func traceMiddleware(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, start := rec.begin()
		if id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(traceHeader), 10, 64)
		req := parent
		if req == 0 {
			req = id
		}
		ctx := context.WithValue(r.Context(), spanKey{}, spanRef{id: id, req: req})
		next.ServeHTTP(w, r.WithContext(ctx))
		rec.end(id, parent, req, "server.handler", start)
	})
}

// tracedSnapshot decorates a model.Snapshot with spans around the three
// retrieval paths, parented through the request context. It is published
// into the holder in place of the snapshot it wraps; everything else
// (Index, Servable, generation) is the wrapped snapshot's own.
type tracedSnapshot struct {
	model.Snapshot
	rec *recorder
}

func (t tracedSnapshot) open(ctx context.Context) (id uint64, parent spanRef, start time.Time) {
	id, start = t.rec.begin()
	if id != 0 {
		parent, _ = ctx.Value(spanKey{}).(spanRef)
	}
	return id, parent, start
}

func (t tracedSnapshot) Similar(ctx context.Context, seeds []int32, opts knn.Options) ([][]knn.Result, error) {
	id, parent, start := t.open(ctx)
	rs, err := t.Snapshot.Similar(ctx, seeds, opts)
	name := "sisg.similar"
	if opts.Index == knn.IndexIVF {
		name = "sisg.similar_ivf"
	}
	t.rec.end(id, parent.id, parent.req, name, start)
	return rs, err
}

// SimilarToVector serves both cold-start item retrievals (the handler
// composes the Eq. 6 vector first, then scans).
func (t tracedSnapshot) SimilarToVector(ctx context.Context, qv []float32, k int, skip func(int32) bool) ([]knn.Result, error) {
	id, parent, start := t.open(ctx)
	rs, err := t.Snapshot.SimilarToVector(ctx, qv, k, skip)
	t.rec.end(id, parent.id, parent.req, "sisg.cold_item", start)
	return rs, err
}

func (t tracedSnapshot) RecommendForColdUser(ctx context.Context, types []int32, k int) ([]knn.Result, error) {
	id, parent, start := t.open(ctx)
	rs, err := t.Snapshot.RecommendForColdUser(ctx, types, k)
	t.rec.end(id, parent.id, parent.req, "sisg.cold_user", start)
	return rs, err
}

// wrapSnapshot returns snap itself in untraced runs, so the timed stack is
// exactly the production one.
func wrapSnapshot(rec *recorder, snap model.Snapshot) model.Snapshot {
	if rec == nil {
		return snap
	}
	return tracedSnapshot{Snapshot: snap, rec: rec}
}

func wrapHandler(rec *recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return traceMiddleware(rec, h)
}
