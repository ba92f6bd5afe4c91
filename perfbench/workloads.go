package main

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/array"
	"repro/internal/dataserve"
	"repro/internal/debloat"
	"repro/internal/sdf"
	"repro/internal/workload"
)

const (
	// debloatSetups and recoverSetups are how many times a run sets up;
	// setup_s is the median. A debloat workload's set-up writes the
	// origin (226 MB for ARD); a recovery workload's also debloats it
	// and starts the recovery plane. A debloat workload whose set-ups
	// take less than a second in all (PRL2D's takes ~4 ms) repeats them
	// up to maxSetups times, so that the median is not a few
	// millisecond samples.
	debloatSetups = 3
	recoverSetups = 9
	maxSetups     = 50
	// heldOutValuations is how many valuations of Θ, none of them
	// evaluated by the fuzzer, check the debloated file (§V-D1) and
	// give the debloat workloads' reads.
	heldOutValuations = 1000
	// readRounds is how many rounds a read window has, each an untimed
	// and a timed pass. On a shared 2-vCPU VM, speed drifts by about
	// 15 % from one second to the next, so the rounds are spread over
	// the whole run and every figure is a median over them. p99s are
	// taken over groups of rounds with at least minRoundReads timed
	// operations, so that each has at least ten beyond it. slowTimed is
	// how many operations a window times in all when they take about a
	// millisecond. The debloat workloads' reads take heldOutShare of
	// --seconds, their debloats the rest.
	readRounds    = 20
	minRoundReads = 1200
	slowTimed     = 12000
	heldOutShare  = 0.4
	// tracedHotReads, tracedMissReads and tracedRuns are how many
	// operations each pass of the traced run makes: about a second's
	// worth on the miss path and the held-out program runs.
	tracedHotReads  = 20000
	tracedMissReads = 1500
	tracedRuns      = 2000
)

func debloatARD(r *run) error {
	return debloatWorkload(r, debloatCase{prog: workload.DefaultARD(), budget: 4000, chunk: []int{16, 16, 16}})
}

func debloatAudit(r *run) error {
	return debloatWorkload(r, debloatCase{prog: workload.MustPRL(256, 256), budget: 2000, chunk: []int{16, 16}, audited: true})
}

// recoverCase is the file both recovery workloads serve: CS2 at 512²,
// debloated at 16×16 chunks from a contiguous origin.
var recoverCase = debloatCase{prog: workload.MustCS(2, 512), budget: 2000, chunk: []int{16, 16}}

func recoverHot(r *run) error  { return recoverWorkload(r, true) }
func recoverMiss(r *run) error { return recoverWorkload(r, false) }

// debloatWorkload measures repeated debloats of one program and the
// held-out valuations' reads of the result. The untraced run debloats,
// checks the result, then runs the read rounds with the remaining
// debloats spread among them; the traced run makes one untraced and one
// traced debloat and then the traced run's read passes.
func debloatWorkload(r *run, dc debloatCase) error {
	origin := filepath.Join(r.dir, "origin.sdf")
	deb := filepath.Join(r.dir, "debloated.sdf")
	var setups []float64
	var setupTime time.Duration
	for i := 0; i < debloatSetups || (setupTime < time.Second && i < maxSetups); i++ {
		// Return the previous set-up's freed write buffer to the OS
		// first. Otherwise, whether the runtime's background scavenger
		// had released it decides whether two origin-sized buffers are
		// resident at once, and ARD's peak_rss_mb jumps between ~340
		// and ~440 MB from run to run.
		debug.FreeOSMemory()
		start := time.Now()
		if err := writeOrigin(origin, dc.prog.Space()); err != nil {
			return err
		}
		setupTime += time.Since(start)
		setups = append(setups, time.Since(start).Seconds())
		if err := flush(origin); err != nil {
			return err
		}
	}
	truth, err := workload.GroundTruth(dc.prog)
	if err != nil {
		return err
	}
	heldOutWindow := time.Duration(heldOutShare * float64(r.seconds))
	if r.traced {
		base, err := debloatUntraced(dc, origin, deb)
		if err != nil {
			return err
		}
		o, err := debloatTraced(r, dc, origin, deb, 0)
		if err != nil {
			return err
		}
		r.check(o.approx.Equal(base.approx), "traced and untraced debloats kept different subsets")
		r.set("bench.trace_overhead_ratio", o.wall.Seconds()/base.wall.Seconds(), "ratio")
		held, err := validate(r, dc, o, deb, heldOutValuations)
		if err != nil {
			return err
		}
		if err := heldOutReads(r, dc, held, origin, deb, heldOutWindow, nil); err != nil {
			return err
		}
		ledgerMetrics(r, "bench.debloat")
		return nil
	}

	first, err := debloatUntraced(dc, origin, deb)
	if err != nil {
		return err
	}
	walls, cpus := []float64{first.wall.Seconds()}, []float64{first.cpu}
	quality(r, truth, first)
	held, err := validate(r, dc, first, deb, heldOutValuations)
	if err != nil {
		return err
	}
	// The remaining debloats, as many as fit into the rest of the
	// debloat share of --seconds but at least one, run at evenly spaced
	// read rounds, so that the debloat and the read figures both sample
	// the whole run. They write a second file; the reads use the first.
	extra := int(float64(r.seconds)*(1-heldOutShare)/float64(first.wall)) - 1
	extra = max(1, min(extra, readRounds))
	due := make(map[int]bool)
	for k := 0; k < extra; k++ {
		due[(2*k+1)*readRounds/(2*extra)] = true
	}
	between := func(round int) error {
		if !due[round] {
			return nil
		}
		o, err := debloatUntraced(dc, origin, filepath.Join(r.dir, "again.sdf"))
		if err != nil {
			return err
		}
		r.check(o.approx.Equal(first.approx) && o.stats == first.stats,
			"a repeated debloat kept a different subset than the first")
		walls = append(walls, o.wall.Seconds())
		cpus = append(cpus, o.cpu)
		return nil
	}
	if err := heldOutReads(r, dc, held, origin, deb, heldOutWindow, between); err != nil {
		return err
	}
	r.res.Attempted += int64(len(walls))
	r.set("setup_s", median(setups), "s")
	r.set("debloat_s", median(walls), "s")
	r.set("debloat_cpu_s", median(cpus), "s")
	return nil
}

// heldOutReads runs held-out valuations — none of them evaluated by
// the fuzzer — on the debloated file through debloat.Runtime,
// recovering carved-away elements from the local origin: one read
// operation is one program run, the data a user of the debloated file
// reads for a valuation the fuzzer never tried.
func heldOutReads(r *run, dc debloatCase, held [][]float64, origin, deb string, d time.Duration, between func(int) error) error {
	f, err := sdf.Open(deb)
	if err != nil {
		return err
	}
	defer f.Close()
	ds, err := f.Dataset(dataset)
	if err != nil {
		return err
	}
	fetcher := debloat.NewOriginFetcher(origin)
	defer fetcher.Close()
	var rt *debloat.Runtime
	var tr *readTracer
	if r.traced {
		tr = &readTracer{led: r.led}
		rt = debloat.NewRuntime(ds, &tracedFetcher{inner: fetcher, tr: tr})
	} else {
		rt = debloat.NewRuntime(ds, fetcher)
	}
	rd := valuationReader(rt, dc.prog, held)
	_, _, err = measureReads(r, rd, tr, slowTimed/readRounds, tracedRuns, d, between)
	return err
}

// measureReads runs the read window of a run. In the untraced run that
// is rounds interleaved timed passes of perRound operations and untimed
// passes. In the traced run it is three passes of n operations: one
// that counts heap allocations, one clocked, and one traced. It returns
// the number of operations made and, in the traced run, the traced
// pass's time over the clocked pass's.
func measureReads(r *run, rd *reader, tr *readTracer, perRound, n int, d time.Duration, between func(int) error) (reads int64, overhead float64, err error) {
	var t readTally
	quiesce()
	if !r.traced {
		p50, p99, perSec, err := rd.readWindow(d, perRound, readRounds, &t, between)
		if err != nil {
			return 0, 0, err
		}
		r.set("reads_per_s", perSec, "1/s")
		r.set("read_p50_us", p50/1e3, "us")
		r.set("read_p99_us", p99/1e3, "us")
		r.set("success_rate", float64(t.reads-t.bad)/float64(t.reads), "ratio")
		r.check(t.bad == 0, "%d of %d reads failed or returned a wrong value", t.bad, t.reads)
		fmt.Fprintf(os.Stderr, "perfbench: read p50 and rate are medians over %d rounds of %d clocked operations; p99 over groups of at least %d\n", readRounds, perRound, minRoundReads)
		r.res.Attempted += t.reads
		r.res.Failed += t.bad
		return t.reads, 0, nil
	}
	bytes, allocs := rd.heapPerRead(n, &t)
	r.set("runtime.alloc_bytes_per_read", bytes, "B")
	r.set("runtime.allocs_per_read", allocs, "count")
	quiesce()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gcs := ms.NumGC
	base := rd.timed(n, &t)
	runtime.ReadMemStats(&ms)
	r.set("runtime.gc_cycles", float64(ms.NumGC-gcs), "count")
	misses := rd.rt.Misses()
	quiesce()
	start := time.Now()
	root := r.led.begin("bench.reads", -1, 0)
	kept, recovered := rd.traced(tr, root, n, &t)
	r.led.end(root)
	tracedWall := time.Since(start)
	var baseWall float64
	for _, l := range base {
		baseWall += l
	}
	fmt.Fprintf(os.Stderr, "perfbench: traced-run percentiles over %d kept and %d recovered reads\n", len(kept), len(recovered))
	r.set("debloat.misses", float64(rd.rt.Misses()-misses), "count")
	k := sortedCopy(kept)
	rc := sortedCopy(recovered)
	p50k, _ := percentile(k, 0.5)
	p50r, _ := percentile(rc, 0.5)
	p99r, _ := percentile(rc, 0.99)
	r.set("debloat.kept_read_p50_us", p50k/1e3, "us")
	r.set("debloat.recovered_read_p50_us", p50r/1e3, "us")
	r.set("debloat.recovered_read_p99_us", p99r/1e3, "us")
	r.check(t.bad == 0, "%d of %d traced-run reads failed or returned a wrong value", t.bad, t.reads)
	return t.reads, float64(tracedWall) / baseWall, nil
}

// plane is one set-up recovery plane: an in-process origin server on a
// loopback listener, a verifying fetcher on one keep-alive connection,
// and a runtime over the debloated file.
type plane struct {
	hs      *http.Server
	srv     *dataserve.Server
	client  *http.Client
	fetcher *dataserve.Fetcher
	served  chan struct{} // closed when the server goroutine has returned
	file    *sdf.File
	rt      *debloat.Runtime
	// kept and carved are the linear indices the debloated file holds
	// and lacks, ascending; touched counts the serving chunks that hold
	// a carved index, and the cache holds cached of them.
	kept, carved    []int64
	touched, cached int
}

func (p *plane) close() {
	p.hs.Close()
	<-p.served
	p.srv.Close()
	p.client.CloseIdleConnections()
	p.file.Close()
}

// setUpPlane writes the origin, debloats it, builds the Merkle spec a
// debloat manifest would carry, starts the origin server, and arms a
// verifying fetcher whose chunk cache holds cacheChunks(touched)
// serving chunks. It then warms the plane up: the first /meta, the
// server's lazy Merkle tree, and with warmCarved every carved-away
// serving chunk in the cache.
func setUpPlane(r *run, tr *readTracer, origin, deb string, cacheChunks func(int) int, warmCarved bool) (*plane, debloatOut, error) {
	dc := recoverCase
	if err := writeOrigin(origin, dc.prog.Space()); err != nil {
		return nil, debloatOut{}, err
	}
	var o debloatOut
	var err error
	if tr != nil {
		o, err = debloatTraced(r, dc, origin, deb, 0)
	} else {
		o, err = debloatUntraced(dc, origin, deb)
	}
	if err != nil {
		return nil, o, err
	}
	of, err := sdf.Open(origin)
	if err != nil {
		return nil, o, err
	}
	ods, err := of.Dataset(dataset)
	if err != nil {
		of.Close()
		return nil, o, err
	}
	serving := sdf.ServingChunk(ods)
	tree, err := sdf.BuildDatasetMerkle(ods, serving)
	if err != nil {
		of.Close()
		return nil, o, err
	}
	spec := tree.SpecOf(ods)
	of.Close()

	p := &plane{}
	p.file, err = sdf.Open(deb)
	if err != nil {
		return nil, o, err
	}
	ds, err := p.file.Dataset(dataset)
	if err != nil {
		p.file.Close()
		return nil, o, err
	}
	space := ds.Space()
	grid, err := array.NewChunkedLayout(space, ds.DType(), serving)
	if err != nil {
		p.file.Close()
		return nil, o, err
	}
	touched := make(map[int64]bool)
	firstOf := make(map[int64]int64) // serving chunk -> its first carved index
	for lin := int64(0); lin < space.Size(); lin++ {
		ix, _ := space.Unlinear(lin)
		if _, err := ds.FileOffset(ix); err == nil {
			p.kept = append(p.kept, lin)
			continue
		}
		p.carved = append(p.carved, lin)
		cc, _, _ := grid.ChunkCoord(ix)
		cl, _ := grid.ChunkLinear(cc)
		if !touched[cl] {
			touched[cl] = true
			firstOf[cl] = lin
		}
	}
	if len(p.kept) == 0 || len(p.carved) == 0 {
		p.file.Close()
		return nil, o, fmt.Errorf("debloated file keeps %d and lacks %d indices; both pools must be non-empty", len(p.kept), len(p.carved))
	}

	p.srv, err = dataserve.NewServer(origin)
	if err != nil {
		p.file.Close()
		return nil, o, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		p.srv.Close()
		p.file.Close()
		return nil, o, err
	}
	h := p.srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	p.hs = &http.Server{Handler: h}
	p.served = make(chan struct{})
	go func() {
		defer close(p.served)
		_ = p.hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	p.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	p.touched, p.cached = len(touched), cacheChunks(len(touched))
	entry := grid.ChunkSizeBytes() + 64 // the fetcher cache's accounting of one serving chunk
	p.fetcher = dataserve.NewFetcherConfig("http://"+ln.Addr().String(), p.client,
		dataserve.FetcherConfig{MaxCacheBytes: int64(p.cached) * entry})
	if err := p.fetcher.SetVerify(dataset, spec); err != nil {
		p.close()
		return nil, o, err
	}
	if tr != nil {
		p.rt = debloat.NewRuntime(ds, &tracedFetcher{inner: p.fetcher, tr: tr})
	} else {
		p.rt = debloat.NewRuntime(ds, p.fetcher)
	}

	warm := []int64{p.carved[0]}
	if warmCarved {
		warm = warm[:0]
		for _, lin := range firstOf {
			warm = append(warm, lin)
		}
		sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
	}
	for _, lin := range warm {
		ix, _ := space.Unlinear(lin)
		if v, err := p.rt.ReadElement(ix); err != nil || v != valueAt(lin) {
			p.close()
			return nil, o, fmt.Errorf("warm-up read of %v: value %v, error %v", ix, v, err)
		}
	}
	quiesce()
	return p, o, nil
}

// recoverWorkload measures reads of the CS2 file through the
// debloated runtime. hot mixes 90 % kept and 10 % carved-away reads,
// Zipf-distributed, against a cache warmed with every carved-away
// chunk; the other mode reads carved-away indices uniformly through a
// cache of one serving chunk, far fewer than the chunks those indices
// touch, so nearly every read is a verified loopback round trip.
func recoverWorkload(r *run, hot bool) error {
	origin := filepath.Join(r.dir, "origin.sdf")
	deb := filepath.Join(r.dir, "debloated.sdf")
	cacheChunks := func(touched int) int {
		if hot {
			return touched
		}
		return 1
	}
	var tr *readTracer
	repeats := recoverSetups
	if r.traced {
		tr = &readTracer{led: r.led}
		repeats = 1
	}
	// debloat_s here is the median of the set-up debloats of the served
	// file.
	var setups, walls, cpus []float64
	var p *plane
	var first debloatOut
	for i := 0; i < repeats; i++ {
		if p != nil {
			p.close()
		}
		quiesce()
		start := time.Now()
		var o debloatOut
		var err error
		p, o, err = setUpPlane(r, tr, origin, deb, cacheChunks, hot)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
		walls = append(walls, o.wall.Seconds())
		cpus = append(cpus, o.cpu)
		if err := flush(origin); err != nil {
			return err
		}
		if i == 0 {
			first = o
		} else {
			r.check(o.approx.Equal(first.approx), "set-up debloat %d kept a different subset than the first", i)
		}
	}
	defer p.close()
	fmt.Fprintf(os.Stderr, "perfbench: %d carved-away indices in %d serving chunks; the cache holds %d\n",
		len(p.carved), p.touched, p.cached)

	truth, err := workload.GroundTruth(recoverCase.prog)
	if err != nil {
		return err
	}
	if _, err := validate(r, recoverCase, first, deb, heldOutValuations); err != nil {
		return err
	}

	// The read sequence: a fixed-length stream drawn from the seed and
	// replayed cyclically.
	rng := rand.New(rand.NewSource(r.seed))
	var lins []int64
	perRound := slowTimed / readRounds
	if hot {
		keptPerm := permute(p.kept, rng)
		carvedPerm := permute(p.carved, rng)
		zk := rand.NewZipf(rng, 1.1, 1, uint64(len(keptPerm)-1))
		zc := rand.NewZipf(rng, 1.1, 1, uint64(len(carvedPerm)-1))
		lins = make([]int64, 1<<18)
		for i := range lins {
			if rng.Intn(10) == 0 {
				lins[i] = carvedPerm[zc.Uint64()]
			} else {
				lins[i] = keptPerm[zk.Uint64()]
			}
		}
		perRound = 1 << 15
	} else {
		lins = make([]int64, 1<<16)
		for i := range lins {
			lins[i] = p.carved[rng.Intn(len(p.carved))]
		}
	}
	rd := elementReader(p.rt, p.rt.Space(), lins)
	before := p.fetcher.Stats()
	traced := tracedMissReads
	if hot {
		traced = tracedHotReads
	}
	reads, overhead, err := measureReads(r, rd, tr, perRound, traced, r.seconds, nil)
	if err != nil {
		return err
	}
	after := p.fetcher.Stats()
	trips := after.RoundTrips - before.RoundTrips
	r.check(after.VerifyFailed == 0 && after.Retries == 0, "fetcher saw %d verification failures and %d retries", after.VerifyFailed, after.Retries)
	if hot {
		r.check(trips == 0, "recover-hot made %d round trips in its window; the warm-up must cache every carved-away chunk", trips)
	}
	if r.traced {
		// The dataserve counters cover all of the traced run's read passes.
		r.set("bench.trace_overhead_ratio", overhead, "ratio")
		r.set("dataserve.round_trips", float64(trips), "count")
		r.set("dataserve.cache_hit_ratio", hitRatio(before, after), "ratio")
		r.set("dataserve.flight_shared", float64(after.FlightShared-before.FlightShared), "count")
		r.set("dataserve.retries", float64(after.Retries-before.Retries), "count")
		r.set("dataserve.verify_ok", float64(after.VerifyOK-before.VerifyOK), "count")
		r.set("dataserve.verify_failed", float64(after.VerifyFailed-before.VerifyFailed), "count")
		r.set("dataserve.verified_read_ratio", float64(after.VerifyOK-before.VerifyOK)/float64(reads), "ratio")
		srv := sortedCopy(r.led.durations("dataserve.serve"))
		p50, _ := percentile(srv, 0.5)
		p99, _ := percentile(srv, 0.99)
		r.set("dataserve.server_p50_us", p50/1e3, "us")
		r.set("dataserve.server_p99_us", p99/1e3, "us")
		if n := tr.frames.Load(); n > 0 {
			r.set("dataserve.frame_bytes", float64(tr.frameBytes.Load())/float64(n), "B")
		}
		ledgerMetrics(r, "bench.reads")
		return nil
	}
	r.set("setup_s", median(setups), "s")
	r.set("debloat_s", median(walls), "s")
	r.set("debloat_cpu_s", median(cpus), "s")
	quality(r, truth, first)
	return nil
}

func hitRatio(before, after dataserve.FetchStats) float64 {
	h := after.CacheHits - before.CacheHits
	m := after.CacheMisses - before.CacheMisses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// permute returns a seeded permutation of pool.
func permute(pool []int64, rng *rand.Rand) []int64 {
	out := append([]int64(nil), pool...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
