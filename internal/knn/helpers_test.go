package knn

import "context"

// queryT and queryBatchT are the uncancellable spellings tests use when
// cancellation is not the thing under test: Background context, panic on
// error (impossible without cancellation).
func queryT(ix *Index, q []float32, opts Options) []Result {
	rs, err := ix.Query(context.Background(), q, opts)
	if err != nil {
		panic(err)
	}
	return rs
}

func queryBatchT(ix *Index, qs [][]float32, opts Options) [][]Result {
	rs, err := ix.QueryBatch(context.Background(), qs, opts)
	if err != nil {
		panic(err)
	}
	return rs
}

// overlap counts how many of got's ids appear in truth — the numerator of
// recall@k against a flat-scan ground truth.
func overlap(truth, got []Result) int {
	in := make(map[int32]bool, len(truth))
	for _, r := range truth {
		in[r.ID] = true
	}
	n := 0
	for _, r := range got {
		if in[r.ID] {
			n++
		}
	}
	return n
}
