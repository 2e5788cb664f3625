package sisg

import (
	"context"
	"fmt"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/emb"
	"sisg/internal/knn"
	"sisg/internal/model"
	"sisg/internal/sgns"
	"sisg/internal/vecmath"
	"sisg/internal/vocab"
)

// StreamConfig configures a streaming trainer.
type StreamConfig struct {
	Variant Variant
	// Admit budgets the live vocabulary (items + SI + user types share the
	// one budget, exactly as they share the one semantic space).
	Admit vocab.AdmitConfig
	// Live configures the incremental trainer. Window is in ITEM units
	// (widened by the SI stride like TrainOptions); Capacity is overwritten
	// with Admit.Budget.
	Live sgns.LiveOptions
}

// Streamer is the online SISG trainer: it consumes live sessions, admits
// tokens under the vocabulary budget, Eq. 6-seeds every newly admitted item
// from its side information BEFORE any gradient touches it, trains the live
// matrix incrementally, and cuts immutable snapshots on demand. It is not
// safe for concurrent use — one ingest loop owns it; snapshots hand
// concurrent readers their own copies.
type Streamer struct {
	dict *corpus.Dict
	v    Variant
	adm  *vocab.Admitter
	live *sgns.Live

	gen      uint64
	sessions uint64
	seeded   uint64 // items Eq. 6-seeded at admission

	// centroids are the IVF coarse centroids of the last published
	// generation, the warm start of the next one's build.
	centroids []float32

	seq []int32 // scratch row sequence
}

// NewStreamer builds a streaming trainer over the universe dictionary
// (which must cover every item the stream can mention — including items
// that have not launched yet, so their SI is known at first sight).
func NewStreamer(dict *corpus.Dict, cfg StreamConfig) (*Streamer, error) {
	adm, err := vocab.NewAdmitter(cfg.Admit)
	if err != nil {
		return nil, err
	}
	lo := cfg.Live
	lo.Capacity = adm.Budget()
	lo.Directed = cfg.Variant.Directed
	if cfg.Variant.UseSI {
		stride := 1 + corpus.NumSIColumns
		lo.Window *= stride
		lo.Stride = stride
	}
	live, err := sgns.NewLive(lo)
	if err != nil {
		return nil, err
	}
	return &Streamer{dict: dict, v: cfg.Variant, adm: adm, live: live}, nil
}

// Ingest consumes one session: admission (with Eq. 6 seeding of any newly
// admitted item) followed by incremental training on the admitted rows.
func (st *Streamer) Ingest(s corpus.Session) {
	st.Train(st.Admit(s))
}

// Admit runs the admission half of Ingest: every token of the enriched
// session (Eq. 4 order) is observed by the sketch, newly admitted tokens
// get live rows, and a newly admitted ITEM is immediately seeded from its
// admitted SI rows (Eq. 6) — so the item is servable by the next snapshot
// before a single gradient step has touched it. It returns the admitted
// row sequence (valid until the next Admit); Train consumes it.
func (st *Streamer) Admit(s corpus.Session) []int32 {
	seq := st.seq[:0]
	for _, it := range s.Items {
		var siRows [corpus.NumSIColumns]int32
		if st.v.UseSI {
			// Observe SI before the item so a just-admitted item can seed
			// from rows that exist; sequence order below stays Eq. 4.
			for c, si := range st.dict.ItemSI[it] {
				row, ok, _ := st.observe(si)
				siRows[c] = -1
				if ok {
					siRows[c] = row
				}
			}
		}
		itemRow, ok, isNew := st.observe(it)
		if isNew {
			st.seedItem(itemRow, it)
		}
		if ok {
			seq = append(seq, itemRow)
		}
		if st.v.UseSI {
			for _, r := range siRows {
				if r >= 0 {
					seq = append(seq, r)
				}
			}
		}
	}
	if st.v.UseUserType {
		if row, ok, _ := st.observe(st.dict.UserType[s.UserType]); ok {
			seq = append(seq, row)
		}
	}
	st.seq = seq
	st.sessions++
	return seq
}

// Train runs the training half of Ingest on a row sequence from Admit.
func (st *Streamer) Train(seq []int32) {
	st.live.TrainSequence(seq)
}

// observe routes one token through the admitter and mirrors every
// admission into the live matrix, keeping the two row spaces identical.
func (st *Streamer) observe(tok vocab.ID) (int32, bool, bool) {
	row, ok, isNew := st.adm.Observe(tok)
	if isNew {
		if lr := st.live.AddRow(st.dict.KindOf(tok)); lr != row {
			panic(fmt.Sprintf("sisg: admitter row %d != live row %d", row, lr))
		}
	}
	return row, ok, isNew
}

// seedItem overwrites a freshly admitted item's rows with the Eq. 6
// composition of its admitted SI rows — input AND output vectors, like
// SeedColdItems — scaled to the mean norm of existing item rows so the
// seed competes on the same scale inside the retrieval index. With no SI
// (or none admitted yet) the word2vec init stands.
func (st *Streamer) seedItem(row int32, item int32) {
	if !st.v.UseSI {
		return
	}
	m := st.live.Model()
	in := make([]float32, m.Dim())
	out := make([]float32, m.Dim())
	resolved := 0
	for _, si := range st.dict.ItemSI[item] {
		if r, ok := st.adm.Row(si); ok {
			vecmath.Add(m.In.Row(r), in)
			vecmath.Add(m.Out.Row(r), out)
			resolved++
		}
	}
	if resolved == 0 {
		return
	}
	scaleTo(in, st.refNorm(m.In, row))
	scaleTo(out, st.refNorm(m.Out, row))
	st.live.SetRow(row, in, out)
	st.seeded++
}

// refNorm samples the mean L2 norm of existing item rows (excluding the
// row being seeded). Zero when no other item row exists yet — scaleTo
// then keeps the raw SI sum.
func (st *Streamer) refNorm(mat *emb.Matrix, exclude int32) float32 {
	rows := st.live.Rows()
	step := rows/64 + 1
	var sum float64
	n := 0
	for r := 0; r < rows; r += step {
		if int32(r) == exclude || st.live.KindOf(int32(r)) != vocab.KindItem {
			continue
		}
		sum += float64(vecmath.Norm(mat.Row(int32(r))))
		n++
	}
	if n == 0 {
		return 0
	}
	return float32(sum / float64(n))
}

// Sessions returns how many sessions have been ingested.
func (st *Streamer) Sessions() uint64 { return st.sessions }

// Admitted returns the live vocabulary size.
func (st *Streamer) Admitted() int { return st.adm.Len() }

// SeededItems returns how many items were Eq. 6-seeded at admission.
func (st *Streamer) SeededItems() uint64 { return st.seeded }

// Pairs returns how many positive pairs have been trained.
func (st *Streamer) Pairs() uint64 { return st.live.Pairs() }

// Publish cuts the next immutable snapshot: full copies of the live
// matrices' admitted prefix, a compacted item matrix with its retrieval
// index, and the token→row map frozen at this instant. The index's IVF
// layer is built here, warm-started from the previous generation's
// centroids, so a published snapshot never runs k-means under a request —
// the server's brownout can switch a fresh generation from flat to IVF at
// no cost. The streamer keeps training; the snapshot never changes.
func (st *Streamer) Publish() *StreamSnapshot {
	st.gen++
	m := st.live.Model()
	rows := st.live.Rows()
	dim := m.Dim()

	snap := &StreamSnapshot{
		gen:   st.gen,
		at:    time.Now(),
		v:     st.v,
		dict:  st.dict,
		in:    emb.NewMatrix(rows, dim),
		out:   emb.NewMatrix(rows, dim),
		rowOf: make(map[vocab.ID]int32, rows),
	}
	copy(snap.in.Data(), m.In.Data()[:rows*dim])
	copy(snap.out.Data(), m.Out.Data()[:rows*dim])

	// Admission order IS row order, so walking the admitted tokens yields
	// a deterministic compact item numbering.
	toks := st.adm.Tokens()
	for r := 0; r < rows; r++ {
		snap.rowOf[toks[r]] = int32(r)
	}
	var itemRows []int32
	for r := 0; r < rows; r++ {
		if st.live.KindOf(int32(r)) == vocab.KindItem {
			itemRows = append(itemRows, int32(r))
		}
	}
	snap.items = make([]int32, len(itemRows))
	snap.itemRowOf = make(map[int32]int32, len(itemRows))
	snap.itemIn = emb.NewMatrix(len(itemRows), dim)
	snap.itemOut = emb.NewMatrix(len(itemRows), dim)
	for c, r := range itemRows {
		it := toks[r] // item token id == catalog item id
		snap.items[c] = it
		snap.itemRowOf[it] = int32(c)
		copy(snap.itemIn.Row(int32(c)), snap.in.Row(r))
		copy(snap.itemOut.Row(int32(c)), snap.out.Row(r))
	}
	if st.v.Directed {
		snap.index = knn.NewIndex(snap.itemOut, len(itemRows), false)
		snap.userIndex = knn.NewIndex(snap.itemIn, len(itemRows), false)
	} else {
		snap.index = knn.NewIndex(snap.itemIn, len(itemRows), true)
	}
	snap.index.BuildIVF(st.centroids)
	st.centroids = snap.index.IVFCentroids()
	return snap
}

// StreamSnapshot is one published generation of a streaming model: the
// admitted vocabulary's embeddings (for SI composition and user-type
// queries), a compacted item matrix with the variant's retrieval index,
// and the universe dictionary for name resolution. Immutable; implements
// model.Snapshot.
type StreamSnapshot struct {
	gen  uint64
	at   time.Time
	v    Variant
	dict *corpus.Dict

	in, out *emb.Matrix        // admitted-vocab copies, live-row order
	rowOf   map[vocab.ID]int32 // universe token -> live row

	items     []int32         // compact item row -> catalog item id
	itemRowOf map[int32]int32 // catalog item id -> compact row
	itemIn    *emb.Matrix     // compacted item input vectors
	itemOut   *emb.Matrix     // compacted item output vectors
	index     *knn.Index      // variant-scored retrieval index
	userIndex *knn.Index      // directed cold-user index (in-vectors, raw dot)
}

var _ model.Snapshot = (*StreamSnapshot)(nil)

func (s *StreamSnapshot) Generation() uint64     { return s.gen }
func (s *StreamSnapshot) PublishedAt() time.Time { return s.at }
func (s *StreamSnapshot) Variant() string        { return s.v.Name }
func (s *StreamSnapshot) Dim() int               { return s.in.Dim }
func (s *StreamSnapshot) VocabSize() int         { return s.in.Rows() }
func (s *StreamSnapshot) NumItems() int          { return len(s.items) }
func (s *StreamSnapshot) Index() *knn.Index      { return s.index }

func (s *StreamSnapshot) Servable(item int32) bool {
	_, ok := s.itemRowOf[item]
	return ok
}

// translate rewrites compact-row result ids into catalog item ids, in
// place (result slices are fresh per query).
func (s *StreamSnapshot) translate(rs []knn.Result) []knn.Result {
	for i := range rs {
		rs[i].ID = s.items[rs[i].ID]
	}
	return rs
}

func (s *StreamSnapshot) Similar(ctx context.Context, seeds []int32, opts knn.Options) ([][]knn.Result, error) {
	opts.Normalize = !s.v.Directed
	if len(seeds) == 1 {
		row, ok := s.itemRowOf[seeds[0]]
		if !ok {
			return nil, model.ErrNotServable
		}
		opts.Skip = func(id int32) bool { return id == row }
		rs, err := s.index.Query(ctx, s.itemIn.Row(row), opts)
		if err != nil {
			return nil, err
		}
		return [][]knn.Result{s.translate(rs)}, nil
	}
	k := opts.K
	opts.K = k + 1
	opts.Skip = nil
	qvs := make([][]float32, len(seeds))
	for i, seed := range seeds {
		row, ok := s.itemRowOf[seed]
		if !ok {
			return nil, model.ErrNotServable
		}
		qvs[i] = s.itemIn.Row(row)
	}
	batch, err := s.index.QueryBatch(ctx, qvs, opts)
	if err != nil {
		return nil, err
	}
	for i, rs := range batch {
		batch[i] = dropSelf(s.translate(rs), seeds[i], k)
	}
	return batch, nil
}

func (s *StreamSnapshot) SimilarToVector(ctx context.Context, qv []float32, k int, skip func(int32) bool) ([]knn.Result, error) {
	opts := knn.Options{K: k, Normalize: !s.v.Directed}
	if skip != nil {
		opts.Skip = func(row int32) bool { return skip(s.items[row]) }
	}
	rs, err := s.index.Query(ctx, qv, opts)
	if err != nil {
		return nil, err
	}
	return s.translate(rs), nil
}

// ColdItemVector composes Eq. 6 for a catalog item over its ADMITTED SI
// rows. An item whose side information has not earned a single row yet
// cannot be composed — the stream simply has not seen its world.
func (s *StreamSnapshot) ColdItemVector(item int32) ([]float32, error) {
	if item < 0 || int(item) >= s.dict.NumItems {
		return nil, model.ErrNotServable
	}
	v := make([]float32, s.in.Dim)
	resolved := 0
	for _, si := range s.dict.ItemSI[item] {
		if row, ok := s.rowOf[si]; ok {
			vecmath.Add(s.in.Row(row), v)
			resolved++
		}
	}
	if resolved == 0 {
		return nil, fmt.Errorf("sisg: no admitted SI for item %d", item)
	}
	return v, nil
}

func (s *StreamSnapshot) ColdItemVectorFromNames(names []string) ([]float32, error) {
	v := make([]float32, s.in.Dim)
	resolved := 0
	for _, n := range names {
		id, ok := s.dict.Lookup(n)
		if !ok {
			continue
		}
		if row, ok := s.rowOf[id]; ok {
			vecmath.Add(s.in.Row(row), v)
			resolved++
		}
	}
	if resolved == 0 {
		return nil, fmt.Errorf("sisg: no SI names resolved out of %d", len(names))
	}
	return v, nil
}

func (s *StreamSnapshot) RecommendForColdUser(ctx context.Context, types []int32, k int) ([]knn.Result, error) {
	if len(types) == 0 {
		return nil, fmt.Errorf("sisg: no matching user types")
	}
	src := s.in
	if s.v.Directed {
		src = s.out // §IV-C1 directed: UT output vectors carry the signal
	}
	v := make([]float32, s.in.Dim)
	resolved := 0
	for _, t := range types {
		if row, ok := s.rowOf[s.dict.UserType[t]]; ok {
			vecmath.Add(src.Row(row), v)
			resolved++
		}
	}
	if resolved == 0 {
		return nil, fmt.Errorf("sisg: no admitted user types among %d matches", len(types))
	}
	vecmath.Scale(1/float32(resolved), v)
	var rs []knn.Result
	var err error
	if s.v.Directed {
		rs, err = s.userIndex.Query(ctx, v, knn.Options{K: k})
	} else {
		rs, err = s.index.Query(ctx, v, knn.Options{K: k, Normalize: true})
	}
	if err != nil {
		return nil, err
	}
	return s.translate(rs), nil
}
