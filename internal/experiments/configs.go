package experiments

import (
	"fmt"

	"sisg/internal/corpus"
)

// CorpusByName resolves the named dataset configurations shared by all
// command-line tools, so "sisg-datagen -corpus Sim25K" and
// "sisg-train -corpus Sim25K" deterministically agree on the catalog.
func CorpusByName(name string) (corpus.Config, error) {
	switch name {
	case "Sim25K", "sim25k":
		return corpus.Sim25K(), nil
	case "Sim100K", "sim100k":
		return corpus.Sim100K(), nil
	case "Sim800K", "sim800k":
		return corpus.Sim800K(), nil
	case "quick", "SimQuick":
		return quickCorpus(), nil
	case "tiny", "Tiny":
		return corpus.Tiny(), nil
	default:
		return corpus.Config{}, fmt.Errorf("unknown corpus %q (want Sim25K, Sim100K, Sim800K, quick or tiny)", name)
	}
}
