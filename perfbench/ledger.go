package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// ledger records spans around the calls the benchmark makes into each
// layer. A nil *ledger is the untraced run: every method is a no-op, so
// end-to-end numbers never pay for tracing.
type ledger struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed layer call. Times are offsets from the ledger's
// start; parent is an index into spans (-1 for a root); req groups the
// spans of one request or one debloat run.
type span struct {
	name       string
	start, end time.Duration
	parent     int
	req        int64
}

func newLedger() *ledger { return &ledger{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (l *ledger) begin(name string, parent int, req int64) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, start: now, end: -1, parent: parent, req: req})
	return len(l.spans) - 1
}

func (l *ledger) end(id int) {
	if l == nil {
		return
	}
	now := time.Since(l.t0)
	l.mu.Lock()
	l.spans[id].end = now
	l.mu.Unlock()
}

// duration returns the length of the closed span id.
func (l *ledger) duration(id int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.spans[id].end - l.spans[id].start
}

// busy returns the summed duration and count of the closed spans named
// name.
func (l *ledger) busy(name string) (time.Duration, int) {
	var d time.Duration
	n := 0
	for _, s := range l.spans {
		if s.name == name && s.end >= 0 {
			d += s.end - s.start
			n++
		}
	}
	return d, n
}

// durations returns the durations of the closed spans named name.
func (l *ledger) durations(name string) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.name == name && s.end >= 0 {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// selfTimes attributes wall time to spans and sums it per span name.
// At every instant the elapsed time is split evenly among the open
// spans that have no open child, so a sequential span's self time is
// its duration minus the part its children cover, and time that
// concurrent children (two evaluator workers) spend side by side is
// shared between them instead of counted twice. The attributed times
// therefore sum to the time covered by some span. Times are in seconds.
func (l *ledger) selfTimes() map[string]float64 {
	type edge struct {
		at   time.Duration
		id   int
		open bool
	}
	var edges []edge
	for id, s := range l.spans {
		if s.end >= 0 {
			edges = append(edges, edge{s.start, id, true}, edge{s.end, id, false})
		}
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].open && edges[j].open // close before open at a tie
	})
	self := make(map[string]float64)
	open := make([]bool, len(l.spans))
	openKids := make([]int, len(l.spans))
	leaves := make(map[int]bool) // open spans with no open child
	var last time.Duration
	for _, e := range edges {
		if gap := (e.at - last).Seconds(); gap > 0 && len(leaves) > 0 {
			share := gap / float64(len(leaves))
			for id := range leaves {
				self[l.spans[id].name] += share
			}
		}
		last = e.at
		p := l.spans[e.id].parent
		parentOpen := p >= 0 && open[p]
		if e.open {
			open[e.id] = true
			if openKids[e.id] == 0 {
				leaves[e.id] = true
			}
			if parentOpen {
				openKids[p]++
				delete(leaves, p)
			}
			continue
		}
		open[e.id] = false
		delete(leaves, e.id)
		if parentOpen {
			openKids[p]--
			if openKids[p] == 0 {
				leaves[p] = true
			}
		}
	}
	return self
}

// percentile returns the value at quantile q of sorted samples and the
// number of samples strictly beyond it.
func percentile(sorted []float64, q float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], len(sorted) - 1 - i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// layers groups span names into the layers whose self time the traced
// run reports as shares of the measured operation's wall time.
var layers = []struct {
	name  string
	spans []string
}{
	{"fuzz", []string{"fuzz.run"}},
	{"eval", []string{"workload.eval", "trace.run", "trace.resolve"}},
	{"carve", []string{"carve.carve", "carve.rasterize"}},
	{"write", []string{"debloat.write"}},
	{"read", []string{"runtime.read"}},
	{"fetch", []string{"dataserve.fetch"}},
	{"serve", []string{"dataserve.serve"}},
}

// selfShares attributes the wall time of the root spans named root
// (the workload's measured operation) to layers. Time inside a root
// that no layer span covers is the benchmark's own and is returned as
// unattributed.
func (l *ledger) selfShares(root string) (shares map[string]float64, unattributed float64) {
	sub := &ledger{t0: l.t0}
	rootOf := make([]int, len(l.spans))
	for i, s := range l.spans {
		rootOf[i] = i
		if s.parent >= 0 {
			rootOf[i] = rootOf[s.parent] // a parent begins before its children
		}
	}
	remap := make(map[int]int)
	for i, s := range l.spans {
		if l.spans[rootOf[i]].name != root || s.end < 0 {
			continue
		}
		if s.parent >= 0 {
			s.parent = remap[s.parent]
		}
		remap[i] = len(sub.spans)
		sub.spans = append(sub.spans, s)
	}
	var wall float64
	for _, s := range sub.spans {
		if s.parent < 0 {
			wall += (s.end - s.start).Seconds()
		}
	}
	self := sub.selfTimes()
	shares = make(map[string]float64)
	attributed := 0.0
	for _, ly := range layers {
		for _, n := range ly.spans {
			shares[ly.name] += self[n] / wall
			attributed += self[n]
		}
	}
	return shares, (wall - attributed) / wall
}
