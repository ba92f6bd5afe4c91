package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/array"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// dataset is the name of the one dataset every benchmark file holds.
const dataset = "data"

// valueAt is the origin's content: a known function of the linear
// index, so every value a read returns is checked against a formula.
// It is exact in float64 for every array the benchmark builds.
func valueAt(lin int64) float64 { return float64(lin)*0.5 + 1 }

// writeOrigin writes a contiguous float64 origin file over space,
// filled with valueAt.
func writeOrigin(path string, space array.Space) error {
	w := sdf.NewWriter(path)
	dw, err := w.CreateDataset(dataset, space, array.Float64, nil)
	if err != nil {
		return err
	}
	if err := dw.Fill(func(ix array.Index) float64 {
		lin, _ := space.Linear(ix)
		return valueAt(lin)
	}); err != nil {
		return err
	}
	return w.Close()
}

// flush writes a file's dirty pages to disk. The benchmark flushes
// every file it writes once the timing of the write is over, so that the
// kernel's background writeback of them (226 MB per ARD origin) does
// not run during later timed work.
func flush(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// validations counts how held-out valuations fare on a debloated file.
type validations struct {
	ok, missing, failed, wrong int
}

// runValuations runs prog on each valuation with acc as its accessor
// and sorts the outcomes: ok, hit carved-away data
// (sdf.ErrDataMissing), failed otherwise, or returned a wrong value.
func runValuations(prog workload.Program, vals [][]float64, acc workload.Accessor) validations {
	rec := &recordingAccessor{Accessor: acc}
	env := &workload.Env{Acc: rec}
	var out validations
	for _, v := range vals {
		rec.reset()
		err := prog.Run(v, env)
		switch {
		case errors.Is(err, sdf.ErrDataMissing):
			out.missing++
		case err != nil:
			out.failed++
		case !rec.verify():
			out.wrong++
		default:
			out.ok++
		}
	}
	return out
}

// heldOut draws n distinct integer valuations of Θ from the seed,
// skipping those in used (keyed by valuationKey). The draw is
// deterministic for a seed.
func heldOut(params workload.ParamSpace, n int, seed int64, used map[string]bool) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool)
	var out [][]float64
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		v := params.Sample(rng)
		k := valuationKey(v)
		if used[k] || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, v)
	}
	return out
}

// valuationKey identifies a valuation by its rounded integer values,
// the same identity the fuzzer deduplicates seeds by.
func valuationKey(v []float64) string {
	k := ""
	for _, x := range v {
		k += fmt.Sprintf("%d,", workload.RoundParam(x))
	}
	return k
}
