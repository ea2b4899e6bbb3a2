package main

import (
	"runtime"

	"waitfreebn/internal/bn"
	"waitfreebn/internal/dataset"
	"waitfreebn/internal/rng"
)

// shuffledSample draws m rows from net with a fixed sample seed and then
// shuffles their order with the run seed. Every run seed thus sees the same
// multiset of rows — the same table, MI matrix and CI tests, so timings
// compare across seeds — in a different arrival order.
func shuffledSample(net *bn.Network, m int, sampleSeed, seed uint64) (*dataset.Dataset, error) {
	d, err := net.Sample(m, sampleSeed, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	n := d.NumVars()
	r := rng.NewXoshiro256SS(seed)
	r.Shuffle(m, func(i, j int) {
		for v := 0; v < n; v++ {
			a, b := d.Get(i, v), d.Get(j, v)
			d.Set(i, v, b)
			d.Set(j, v, a)
		}
	})
	return d, nil
}
