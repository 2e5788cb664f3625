// Command sisg-eval evaluates a trained embedding model on the next-item
// protocol (§IV-A): HR@K over the deterministic test split of the corpus.
//
//	sisg-eval -corpus Sim25K -variant SISG-F-U-D -model model.emb
//
// The corpus and split are regenerated deterministically, so evaluation
// matches the split sisg-train trained on only if the sessions came from
// the same config and seed.
//
// With -batch, all test queries are retrieved in one batched scan
// (knn.QueryBatch streams each row block once across the whole query set)
// and retrieval throughput is reported; scores and rankings are
// bit-identical to the per-query path, so HR@K is unchanged.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"sisg/internal/corpus"
	"sisg/internal/eval"
	"sisg/internal/experiments"
	"sisg/internal/knn"
	"sisg/internal/sisg"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("sisg-eval: ")
	var (
		corpusName = flag.String("corpus", "quick", "dataset config: Sim25K, Sim100K, Sim800K, quick, tiny")
		modelPath  = flag.String("model", "model.emb", "model file from sisg-train -out")
		variant    = flag.String("variant", "SISG-F-U-D", "variant the model was trained as (controls the scoring rule)")
		testFrac   = flag.Float64("testfrac", 0.08, "held-out session fraction")
		seed       = flag.Uint64("seed", 0, "override corpus seed (0 = config default)")
		batch      = flag.Bool("batch", false, "retrieve all test queries in one batched scan and report throughput")
	)
	flag.Parse()

	cfg, err := experiments.CorpusByName(*corpusName)
	if err != nil {
		log.Fatal(err)
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	v, err := sisg.VariantByName(*variant)
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("generating %s ...", cfg.Name)
	ds, err := corpus.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	model, err := sisg.LoadModel(*modelPath, ds, v)
	if err != nil {
		log.Fatalf("loading %s: %v", *modelPath, err)
	}
	split := ds.SplitNextItem(*testFrac)

	rec := eval.RecommenderFunc(func(tc corpus.TestCase, k int) []knn.Result {
		rs, err := model.SimilarOne(context.Background(), tc.Query, knn.Options{K: k})
		if err != nil {
			log.Fatal(err)
		}
		return rs
	})
	if *batch {
		queries := make([]int32, len(split.Test))
		for i, tc := range split.Test {
			queries[i] = tc.Query
		}
		maxK := 0
		for _, k := range eval.Ks {
			if k > maxK {
				maxK = k
			}
		}
		start := time.Now()
		results, err := model.Similar(context.Background(), queries, knn.Options{K: maxK})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		log.Printf("batched retrieval: %d queries in %s (%.0f queries/sec)",
			len(queries), elapsed.Round(time.Millisecond),
			float64(len(queries))/elapsed.Seconds())
		byQuery := make(map[int32][]knn.Result, len(queries))
		for i, q := range queries {
			byQuery[q] = results[i]
		}
		rec = eval.RecommenderFunc(func(tc corpus.TestCase, k int) []knn.Result {
			rs := byQuery[tc.Query]
			if k < len(rs) {
				rs = rs[:k]
			}
			return rs
		})
	}
	res := eval.Evaluate(v.Name, rec, split.Test, eval.Ks)
	fmt.Printf("test cases: %d\n", res.Tests)
	for _, k := range eval.Ks {
		fmt.Printf("HR@%-4d %.4f\n", k, res.HR[k])
	}
}
