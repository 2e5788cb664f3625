package sisg

import (
	"fmt"
	"slices"

	"sisg/internal/corpus"
	"sisg/internal/emb"
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

	// Where Publish finds every admitted token, kept at admission (admission
	// order is row order) and append-only, so that a publish rebuilds
	// nothing. A token's class is item or side (SI and user types); its
	// compact row counts admissions of its class.
	slot     []int32 // universe token id -> compact row within its class, -1 until admitted
	items    []int32 // compact item row -> catalog item id
	itemRows []int32 // compact item row -> live row
	sideRows []int32 // compact side row -> live row

	seq             []int32   // scratch row sequence
	seedIn, seedOut []float32 // scratch Eq. 6 sums
}

// NewStreamer builds a streaming trainer over the universe dictionary
// (which must cover every item the stream can mention — including items
// that have not launched yet, so their SI is known at first sight).
func NewStreamer(dict *corpus.Dict, cfg StreamConfig) (*Streamer, error) {
	adm, err := vocab.NewAdmitter(cfg.Admit)
	if err != nil {
		return nil, err
	}
	lo := liveOptions(cfg, adm.Budget())
	live, err := sgns.NewLive(lo)
	if err != nil {
		return nil, err
	}
	st := &Streamer{
		dict: dict, v: cfg.Variant, adm: adm, live: live,
		slot:    make([]int32, dict.Len()),
		seedIn:  make([]float32, lo.Dim),
		seedOut: make([]float32, lo.Dim),
	}
	for i := range st.slot {
		st.slot[i] = -1
	}
	return st, nil
}

// liveOptions is cfg.Live sized to capacity rows, its item-unit window
// widened by the variant's walk exactly as TrainOptions widens a batch run's.
func liveOptions(cfg StreamConfig, capacity int) sgns.LiveOptions {
	lo := cfg.Live
	lo.Capacity = capacity
	lo.Window, lo.Stride, lo.Directed = cfg.Variant.walk(lo.Window, lo.Stride)
	return lo
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
// admission into the live matrix, keeping the two row spaces identical,
// and into the tables Publish copies from.
func (st *Streamer) observe(tok vocab.ID) (int32, bool, bool) {
	row, ok, isNew := st.adm.Observe(tok)
	if isNew {
		if lr := st.live.AddRow(st.dict.KindOf(tok)); lr != row {
			panic(fmt.Sprintf("sisg: admitter row %d != live row %d", row, lr))
		}
		if st.dict.IsItem(tok) {
			st.slot[tok] = int32(len(st.items))
			st.items = append(st.items, tok) // item token id == catalog item id
			st.itemRows = append(st.itemRows, row)
		} else {
			st.slot[tok] = int32(len(st.sideRows))
			st.sideRows = append(st.sideRows, row)
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
	in, out := st.seedIn, st.seedOut
	vecmath.Zero(in)
	vecmath.Zero(out)
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

// Publish cuts the next immutable snapshot in one pass over the live rows:
// every admitted row is copied exactly once, straight from the live
// matrices into the compact matrix of its class (item rows, which the
// retrieval index scans, and the few thousand SI and user-type rows Eq. 6
// and cold-user queries compose from); the token table is one memcpy and
// the item id list is shared, since both only ever grow at their ends. The
// index's IVF layer is built here — one assignment pass over the item rows,
// warm-started from the previous generation's centroids — so a published
// snapshot never runs k-means under a request: the server's brownout can
// switch a fresh generation from flat to IVF at no cost. The streamer keeps
// training; the snapshot never changes.
func (st *Streamer) Publish() *Snapshot {
	st.gen++
	m := st.live.Model()
	n := len(st.items)
	snap := newSnapshot(st.gen, st.v, st.dict,
		slices.Clone(st.slot),
		st.items[:n:n], // appends land beyond n or in a new array: never seen
		gatherRows(m.In, st.sideRows), gatherRows(m.Out, st.sideRows),
		gatherRows(m.In, st.itemRows), gatherRows(m.Out, st.itemRows))
	snap.index.BuildIVF(st.centroids)
	st.centroids = snap.index.IVFCentroids()
	return snap
}

// gatherRows copies the given rows of src, in order, into a new matrix.
func gatherRows(src *emb.Matrix, rows []int32) *emb.Matrix {
	dst := emb.NewMatrix(len(rows), src.Dim)
	for c, r := range rows {
		copy(dst.Row(int32(c)), src.Row(r))
	}
	return dst
}
