// Package graph provides the directed weighted item graph built from user
// behaviour sequences, random walks over it (the EGES corpus generator),
// and the paper's Heuristic Balanced Graph Partitioning (HBGP, §III-B) that
// assigns items to distributed workers.
package graph

import (
	"errors"
	"sort"

	"sisg/internal/corpus"
	"sisg/internal/rng"
)

// Edge is one weighted directed edge.
type Edge struct {
	To     int32
	Weight float64
}

// Graph is a directed weighted graph over item IDs [0, N). It is built
// incrementally and finalized into CSR form for fast weighted walks.
type Graph struct {
	n     int
	adj   []map[int32]float64 // building representation
	final bool

	// CSR representation (after Finalize).
	offsets []int32
	edges   []Edge
	cumul   []float64 // per-node cumulative weights for walk sampling
	outW    []float64 // total out-weight per node
}

// New returns an empty graph over n nodes.
func New(n int) *Graph {
	return &Graph{n: n, adj: make([]map[int32]float64, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge accumulates weight onto the directed edge a→b. Self-loops are
// ignored. Panics if called after Finalize.
func (g *Graph) AddEdge(a, b int32, w float64) {
	if g.final {
		panic("graph: AddEdge after Finalize")
	}
	if a == b {
		return
	}
	m := g.adj[a]
	if m == nil {
		m = make(map[int32]float64, 4)
		g.adj[a] = m
	}
	m[b] += w
}

// FromSessions builds the item graph the way EGES does (and HBGP needs):
// each adjacent click pair (v_i, v_{i+1}) adds weight 1 to the directed
// edge v_i→v_{i+1}. The "weight of each edge is the total transition
// frequency of two nodes in all behavior sequences" (§III-B step 1).
func FromSessions(sessions []corpus.Session, numItems int) *Graph {
	g := New(numItems)
	for i := range sessions {
		items := sessions[i].Items
		for j := 0; j+1 < len(items); j++ {
			g.AddEdge(items[j], items[j+1], 1)
		}
	}
	g.Finalize()
	return g
}

// Finalize freezes the graph into CSR form. Edges are sorted by target for
// determinism. Calling it twice is a no-op.
func (g *Graph) Finalize() {
	if g.final {
		return
	}
	total := 0
	for _, m := range g.adj {
		total += len(m)
	}
	g.offsets = make([]int32, g.n+1)
	g.edges = make([]Edge, 0, total)
	g.cumul = make([]float64, 0, total)
	g.outW = make([]float64, g.n)
	for v := 0; v < g.n; v++ {
		g.offsets[v] = int32(len(g.edges))
		m := g.adj[v]
		if len(m) > 0 {
			keys := make([]int32, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			sum := 0.0
			for _, k := range keys {
				sum += m[k]
				g.edges = append(g.edges, Edge{To: k, Weight: m[k]})
				g.cumul = append(g.cumul, sum)
			}
			g.outW[v] = sum
		}
		g.adj[v] = nil
	}
	g.offsets[g.n] = int32(len(g.edges))
	g.adj = nil
	g.final = true
}

// Out returns the outgoing edges of v (finalized graphs only).
func (g *Graph) Out(v int32) []Edge {
	return g.edges[g.offsets[v]:g.offsets[v+1]]
}

// Weight returns the weight of edge a→b, or 0.
func (g *Graph) Weight(a, b int32) float64 {
	lo, hi := int(g.offsets[a]), int(g.offsets[a+1])
	i := sort.Search(hi-lo, func(i int) bool { return g.edges[lo+i].To >= b })
	if i < hi-lo && g.edges[lo+i].To == b {
		return g.edges[lo+i].Weight
	}
	return 0
}

// Step samples a weighted random out-neighbour of v, or -1 if v has none.
func (g *Graph) Step(v int32, r *rng.RNG) int32 {
	lo, hi := int(g.offsets[v]), int(g.offsets[v+1])
	if lo == hi {
		return -1
	}
	u := r.Float64() * g.cumul[hi-1]
	i := sort.Search(hi-lo, func(i int) bool { return g.cumul[lo+i] >= u })
	return g.edges[lo+i].To
}

// Walk generates a weighted random walk of at most length nodes starting at
// start, stopping early at a sink. The walk always contains at least the
// start node.
func (g *Graph) Walk(start int32, length int, r *rng.RNG) []int32 {
	walk := make([]int32, 1, length)
	walk[0] = start
	cur := start
	for len(walk) < length {
		next := g.Step(cur, r)
		if next < 0 {
			break
		}
		walk = append(walk, next)
		cur = next
	}
	return walk
}

// WalkCorpus generates walksPerNode walks from every node with out-degree
// greater than zero — the DeepWalk-style corpus EGES trains on.
func (g *Graph) WalkCorpus(walksPerNode, walkLength int, seed uint64) [][]int32 {
	if !g.final {
		g.Finalize()
	}
	r := rng.New(seed)
	var out [][]int32
	for rep := 0; rep < walksPerNode; rep++ {
		for v := int32(0); v < int32(g.n); v++ {
			if g.outW[v] == 0 {
				continue
			}
			out = append(out, g.Walk(v, walkLength, r))
		}
	}
	return out
}

// ErrNotFinalized is returned by operations that need CSR form.
var ErrNotFinalized = errors.New("graph: not finalized")
