package main

import (
	"math"
	"sync"
	"time"
)

// The yardstick is a fixed piece of the benchmark's own arithmetic, run on
// every core between the rounds of every stage. The reference box is a
// shared virtual machine whose speed wanders by a third and more for
// minutes at a time: across runs of one commit the timed metrics move
// together, by more than any bound a regression gate could use, and no
// reduction of a run's own rounds can take out a disturbance that lasts
// longer than the run. How fast the yardstick ran during a run says what the
// machine was worth during that run, so the timed end-to-end figures that
// follow it are reported at the yardstick's reference speed (see
// atReferenceSpeed); the figures as measured are printed and kept beside
// them. The yardstick calls nothing in the repository, so no change to the
// repository can move it.
const (
	yardRows = 16 << 10 // 16k rows × 64 floats = 4 MB per core: past L2, like a scan
	yardDim  = 64
	yardOps  = 64 << 10 // row visits per measurement, per core: about 10 ms
	// The yardstick's speed on the reference box in an undisturbed run, in
	// row visits per second over all cores: the top decile of its ticks and
	// the median tick. Frozen at calibration; see README.md.
	yardPeak    = 3.0e7
	yardTypical = 2.4e7

	rateElasticity = 0.6
	timeElasticity = 0.65
)

type yardstick struct {
	slabs  [][]float32
	query  []float32
	speeds []float64 // one per tick, row visits per second
	sink   float32
}

func newYardstick() *yardstick {
	y := &yardstick{query: make([]float32, yardDim)}
	for i := range y.query {
		y.query[i] = float32(i%7) * 0.125
	}
	for c := 0; c < connections; c++ {
		slab := make([]float32, yardRows*yardDim)
		for i := range slab {
			slab[i] = float32(i%31) * 0.03125
		}
		y.slabs = append(y.slabs, slab)
	}
	return y
}

// tick runs the fixed work once on every core at the same time and records
// how fast it went.
func (y *yardstick) tick() {
	var wg sync.WaitGroup
	sums := make([]float32, len(y.slabs))
	t0 := time.Now()
	for c, slab := range y.slabs {
		wg.Add(1)
		go func(c int, slab []float32) {
			defer wg.Done()
			sums[c] = yardWork(slab, y.query, uint32(c*7919+1))
		}(c, slab)
	}
	wg.Wait()
	el := time.Since(t0).Seconds()
	for _, s := range sums {
		y.sink += s
	}
	y.speeds = append(y.speeds, float64(yardOps*len(y.slabs))/el)
}

// yardWork is half streaming dot products (the read path's shape) and half
// scattered read-modify-write rows (the pair update's shape).
func yardWork(slab, query []float32, row uint32) float32 {
	var acc float32
	for i := 0; i < yardOps; i++ {
		var r []float32
		if i&1 == 0 {
			r = slab[(i%yardRows)*yardDim:][:yardDim]
		} else {
			row = row*1664525 + 1013904223
			r = slab[int(row>>8)%yardRows*yardDim:][:yardDim]
		}
		var d float32
		for j, q := range query {
			d += r[j] * q
		}
		if i&1 == 1 {
			g := d * 1e-9
			for j, q := range query {
				r[j] += g * q
			}
		}
		acc += d
	}
	return acc
}

// factor is the run's machine speed relative to the reference box
// undisturbed: the top decile of the ticks, for figures that
// are the top decile of their rounds, or the median tick, for figures that
// are medians over the run's time.
func (y *yardstick) factor(typical bool) float64 {
	if typical {
		return median(y.speeds) / yardTypical
	}
	return topDecile(y.speeds) / yardPeak
}

// sensitivity is each timed end-to-end metric's elasticity to the
// yardstick: how much of it is made of the kind of work the machine's
// disturbance slows. A rate m measured at machine speed f is reported as
// m ÷ f^s, a time as m × f^s. A metric that is not listed showed no
// correlation with the yardstick and is reported as measured. Frozen at
// calibration; README.md has the fit, its check on runs the fit never saw
// and on deliberately slowed copies of the repository, and the spreads
// before and after.
var sensitivity = map[string]struct {
	s       float64
	typical bool // held against the median tick, not the top decile
}{
	"dist_tcp_pairs_per_s":  {s: rateElasticity},
	"dist_chan_pairs_per_s": {s: rateElasticity},
	"sgns_pairs_per_s":      {s: rateElasticity},
	"sgns_w1_pairs_per_s":   {s: rateElasticity},
	"ingest_sessions_per_s": {s: rateElasticity},
	"sat_rps":               {s: rateElasticity},
	"p50_ms":                {s: timeElasticity, typical: true},
	"setup_s":               {s: timeElasticity, typical: true},
}

// atReferenceSpeed converts one measured figure to what it would have been
// with the yardstick at its reference speed.
func (y *yardstick) atReferenceSpeed(name string, v value) value {
	ref, ok := sensitivity[name]
	if !ok {
		return v
	}
	adj := math.Pow(y.factor(ref.typical), ref.s)
	if v.Unit == "ms" || v.Unit == "s" {
		v.Value *= adj
	} else {
		v.Value /= adj
	}
	return v
}
