package main

import (
	"context"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/internal/array"
	"repro/internal/debloat"
	"repro/internal/sdf"
	"repro/internal/workload"
)

// reader replays a fixed, cyclic sequence of read operations against a
// debloated runtime: single element reads, or whole program runs of
// held-out valuations. do performs operation i; ok, called once the
// clock has stopped, checks its result against valueAt.
type reader struct {
	rt   *debloat.Runtime
	n    int
	do   func(i int)
	ok   func(i int) bool
	next int // position of the next operation in the sequence
}

// step performs the next operation and returns its position.
func (rd *reader) step() int {
	k := rd.next
	rd.next++
	if rd.next == rd.n {
		rd.next = 0
	}
	rd.do(k)
	return k
}

// elementReader reads the elements at lins one by one through
// Runtime.ReadElement. The indices are built up front so the read
// loops allocate nothing of their own.
func elementReader(rt *debloat.Runtime, space array.Space, lins []int64) *reader {
	rank := space.Rank()
	backing := make([]int, len(lins)*rank)
	ixs := make([]array.Index, len(lins))
	for i, lin := range lins {
		ix, _ := space.Unlinear(lin)
		cell := backing[i*rank : (i+1)*rank : (i+1)*rank]
		copy(cell, ix)
		ixs[i] = cell
	}
	var v float64
	var err error
	return &reader{
		rt: rt,
		n:  len(lins),
		do: func(i int) { v, err = rt.ReadElement(ixs[i]) },
		ok: func(i int) bool { return err == nil && v == valueAt(lins[i]) },
	}
}

// valuationReader runs prog on each valuation with the runtime as its
// accessor: one operation is one program run, whose reads are recorded
// and checked after the clock stops.
func valuationReader(rt *debloat.Runtime, prog workload.Program, vals [][]float64) *reader {
	acc := &recordingAccessor{Accessor: rt}
	env := &workload.Env{Acc: acc}
	var err error
	return &reader{
		rt: rt,
		n:  len(vals),
		do: func(i int) {
			acc.reset()
			err = prog.Run(vals[i], env)
		},
		ok: func(int) bool { return err == nil && acc.verify() },
	}
}

// recordingAccessor passes a program's reads to the runtime and keeps
// what they returned for a later check against valueAt.
type recordingAccessor struct {
	workload.Accessor
	slabs []recordedSlab
	ints  []int
}

type recordedSlab struct {
	start, count []int
	vals         []float64
}

func (a *recordingAccessor) reset() {
	a.slabs = a.slabs[:0]
	a.ints = a.ints[:0]
}

func (a *recordingAccessor) ReadElement(ix array.Index) (float64, error) {
	v, err := a.Accessor.ReadElement(ix)
	if err == nil {
		a.record(ix, onesOf(len(ix)), []float64{v})
	}
	return v, err
}

func (a *recordingAccessor) ReadSlab(start, count []int) ([]float64, error) {
	vals, err := a.Accessor.ReadSlab(start, count)
	if err == nil {
		a.record(start, count, vals)
	}
	return vals, err
}

func (a *recordingAccessor) record(start, count []int, vals []float64) {
	n := len(a.ints)
	a.ints = append(a.ints, start...)
	a.ints = append(a.ints, count...)
	a.slabs = append(a.slabs, recordedSlab{a.ints[n : n+len(start)], a.ints[n+len(start):], vals})
}

// verify checks every recorded value against valueAt.
func (a *recordingAccessor) verify() bool {
	space := a.Space()
	good := true
	for _, s := range a.slabs {
		i := 0
		sdf.Slab(s.start, s.count).Each(func(ix array.Index) bool {
			lin, _ := space.Linear(ix)
			good = i < len(s.vals) && s.vals[i] == valueAt(lin)
			i++
			return good
		})
		if !good || i != len(s.vals) {
			return false
		}
	}
	return true
}

func onesOf(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// readTally counts operations and their failures across passes.
type readTally struct {
	reads, bad int64
}

// timed makes n operations with a clock around each and returns their
// latencies in nanoseconds.
func (rd *reader) timed(n int, t *readTally) []float64 {
	lat := make([]float64, n)
	for i := range lat {
		start := time.Now()
		k := rd.step()
		lat[i] = float64(time.Since(start))
		if !rd.ok(k) {
			t.bad++
		}
	}
	t.reads += int64(n)
	return lat
}

// untimed reads for at least d with no per-read clock, reading the
// clock once per batch reads, and returns the reads made and the time
// they took.
func (rd *reader) untimed(d time.Duration, batch int, t *readTally) (int, time.Duration) {
	n := 0
	start := time.Now()
	for {
		for j := 0; j < batch; j++ {
			if k := rd.step(); !rd.ok(k) {
				t.bad++
			}
		}
		n += batch
		if el := time.Since(start); el >= d {
			t.reads += int64(n)
			return n, el
		}
	}
}

// readWindow makes rounds rounds of reads over about d. A round runs
// between(round) (when non-nil) on time of its own, then an untimed
// pass, which gives the round's throughput, then a timed pass of
// perRound reads, which gives its latencies; the untimed pass warms
// back up whatever between evicted from the caches before any read is
// clocked. It returns the medians over rounds of each round's p50 and
// reads per second, and the median of the p99s of groups of
// consecutive rounds, each group holding at least minRoundReads
// latencies so that its p99 has at least ten beyond it. Medians over
// many short rounds keep a burst of load from outside the benchmark
// that hits a few rounds from moving the result.
func (rd *reader) readWindow(d time.Duration, perRound, rounds int, t *readTally, between func(int) error) (p50, p99, perSec float64, err error) {
	var p50s, p99s, rates, group []float64
	// Read the clock about once a millisecond in the untimed passes.
	probe := time.Now()
	rd.timed(64, t)
	batch := int(time.Millisecond / (time.Since(probe)/64 + 1))
	if batch < 1 {
		batch = 1
	}
	var lastTimed time.Duration
	for i := 0; i < rounds; i++ {
		if between != nil {
			if err := between(i); err != nil {
				return 0, 0, 0, err
			}
			quiesce()
		}
		// Give the untimed pass at least half the timed pass's time, so
		// the throughput rests on enough operations when they are slow.
		rest := d/time.Duration(rounds) - lastTimed
		if min := lastTimed/2 + 10*time.Millisecond; rest < min {
			rest = min
		}
		n, el := rd.untimed(rest, batch, t)
		rates = append(rates, float64(n)/el.Seconds())
		timedStart := time.Now()
		lat := rd.timed(perRound, t)
		lastTimed = time.Since(timedStart)
		v50, _ := percentile(sortedCopy(lat), 0.5)
		p50s = append(p50s, v50)
		if group = append(group, lat...); len(group) >= minRoundReads {
			v99, _ := percentile(sortedCopy(group), 0.99)
			p99s = append(p99s, v99)
			group = group[:0]
		}
	}
	return median(p50s), median(p99s), median(rates), nil
}

// heapPerRead makes n reads and returns the heap bytes and allocations
// per read, from runtime.MemStats. Two things in the read path make
// the counts depend on more than the reads:
//   - a collection empties every sync.Pool (fmt's printers among them);
//   - each P keeps its own pool caches and its own open tiny-allocator
//     block, which packs allocations under 16 bytes into shared
//     16-byte blocks.
//
// So the pass runs on one P, with the collector off unless its garbage
// passes 256 MB (the miss path allocates ~360 KB a read), after n/10
// warm-up reads that fill that P's pools. On recover-hot, identical
// runs then differ by at most 96 bytes in 2 allocations over the pass,
// from allocations inside the runtime whose timing depends on the
// scheduler.
func (rd *reader) heapPerRead(n int, t *readTally) (bytes, allocs float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(int64(before.Sys-before.HeapReleased) + 256<<20))
	pass := func(n int) {
		for i := 0; i < n; i++ {
			if k := rd.step(); !rd.ok(k) {
				t.bad++
			}
		}
		t.reads += int64(n)
	}
	pass(n / 10)
	runtime.ReadMemStats(&before)
	pass(n)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// readTracer links the spans of one closed-loop read: the read itself
// (runtime.read), the fetch it falls back to on a miss
// (dataserve.fetch), and the origin handler that answers the fetch
// (dataserve.serve). With one client and one request in flight, the
// open read and fetch are the parents of whatever starts inside them.
type readTracer struct {
	led        *ledger
	on         atomic.Bool
	req        atomic.Int64
	read       atomic.Int64
	fetch      atomic.Int64
	frames     atomic.Int64
	frameBytes atomic.Int64
}

// traced makes n reads, each in a runtime.read span under root, and
// returns the latencies of the reads that hit kept data and of those
// that were recovered.
func (rd *reader) traced(tr *readTracer, root, n int, t *readTally) (kept, recovered []float64) {
	tr.on.Store(true)
	defer tr.on.Store(false)
	for i := 0; i < n; i++ {
		req := tr.req.Add(1)
		misses := rd.rt.Misses()
		id := tr.led.begin("runtime.read", root, req)
		tr.read.Store(int64(id))
		k := rd.step()
		tr.led.end(id)
		if !rd.ok(k) {
			t.bad++
		}
		d := float64(tr.led.duration(id))
		if rd.rt.Misses() == misses {
			kept = append(kept, d)
		} else {
			recovered = append(recovered, d)
		}
	}
	t.reads += int64(n)
	return kept, recovered
}

// contextFetcher is the fetch side of debloat.ContextFetcher.
type contextFetcher interface {
	FetchContext(ctx context.Context, dataset string, ix array.Index) (float64, error)
}

// tracedFetcher wraps the runtime's fetcher in dataserve.fetch spans
// while the tracer is on.
type tracedFetcher struct {
	inner contextFetcher
	tr    *readTracer
}

func (f *tracedFetcher) Fetch(dataset string, ix array.Index) (float64, error) {
	return f.FetchContext(context.Background(), dataset, ix)
}

func (f *tracedFetcher) FetchContext(ctx context.Context, dataset string, ix array.Index) (float64, error) {
	if !f.tr.on.Load() {
		return f.inner.FetchContext(ctx, dataset, ix)
	}
	id := f.tr.led.begin("dataserve.fetch", int(f.tr.read.Load()), f.tr.req.Load())
	f.tr.fetch.Store(int64(id))
	v, err := f.inner.FetchContext(ctx, dataset, ix)
	f.tr.led.end(id)
	return v, err
}

// handler wraps the origin's handler in dataserve.serve spans and
// counts the response bytes while the tracer is on.
func (tr *readTracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		id := tr.led.begin("dataserve.serve", int(tr.fetch.Load()), tr.req.Load())
		h.ServeHTTP(cw, req)
		tr.led.end(id)
		tr.frames.Add(1)
		tr.frameBytes.Add(cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}
