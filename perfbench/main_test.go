package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/serve"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []int64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct {
		p           float64
		want, above int64
	}{{50, 5, 5}, {95, 10, 0}, {10, 1, 9}, {100, 10, 0}} {
		got, above := percentile(append([]int64(nil), xs...), c.p)
		if got != c.want || int64(above) != c.above {
			t.Errorf("percentile(p=%v) = %d, %d above; want %d, %d above", c.p, got, above, c.want, c.above)
		}
	}
	if got, above := percentile(nil, 50); got != 0 || above != 0 {
		t.Errorf("percentile of no samples = %d, %d", got, above)
	}
}

// The medians skip invalid windows; with fewer than minValidWindows
// valid, they use the windows with the least steal instead.
func TestWindowedReportKeepsValidOrLeastStolen(t *testing.T) {
	for _, c := range []struct {
		name    string
		valid   []bool
		steal   []float64
		wantCPU float64
	}{
		{"enough valid", []bool{true, false, true, true, false}, []float64{0, 0.3, 0, 0, 0.3}, 3},
		{"fallback", []bool{false, false, false, true, false}, []float64{0.05, 0.2, 0.04, 0.01, 0.3}, 3},
	} {
		w := windowed{
			p50:     []float64{10, 100, 20, 30, 100},
			p95:     []float64{11, 101, 21, 31, 101},
			cpuPerQ: []float64{1, 50, 3, 5, 50},
			steal:   c.steal,
			valid:   c.valid,
		}
		var out bytes.Buffer
		rep := &report{out: &out}
		w.report(rep, "windows")
		if got := rep.e2e["quote_cpu_us"].Value; math.Abs(got-c.wantCPU) > 1e-12 {
			t.Errorf("%s: quote_cpu_us = %v, want %v\n%s", c.name, got, c.wantCPU, out.String())
		}
		if got := rep.e2e["p50_us"].Value; math.Abs(got-20) > 1e-12 {
			t.Errorf("%s: p50_us = %v, want 20", c.name, got)
		}
		if !strings.Contains(out.String(), "(invalid)") {
			t.Errorf("%s: invalid windows not printed:\n%s", c.name, out.String())
		}
	}
}

// An answer from an epoch older than the newest one acknowledged
// before its send is stale; an unanswered request is missing and
// misses every latency limit.
func TestOutcomeCountsStaleAndMissing(t *testing.T) {
	ph := &phase{
		lat:   []int64{100, latPending, 300, latFailed},
		late:  []int64{0, int64(2 * lateLimit), 0, 0},
		ackAt: []uint64{2, 2, 3, 3},
		epoch: []uint64{2, 0, 2, 0},
	}
	o := ph.outcome()
	if o.sent != 4 || o.answered != 2 || o.missing != 1 || o.stale != 1 {
		t.Errorf("outcome = %+v, want 4 sent, 2 answered, 1 missing, 1 stale", o)
	}
	if math.Abs(o.lateShare-0.25) > 1e-12 {
		t.Errorf("lateShare = %v, want 0.25", o.lateShare)
	}
	if ph.lat[1] != latFailed {
		t.Errorf("missing request's latency = %d, want latFailed", ph.lat[1])
	}
}

func TestApplyBatchCopiesAndAppliesInOrder(t *testing.T) {
	costs := []float64{1, 2, 3}
	got := applyBatch(costs, []serve.CostUpdate{{Node: 1, Cost: 5}, {Node: 1, Cost: 6}, {Node: 0, Cost: 4}})
	if !slices.Equal(got, []float64{4, 6, 3}) || !slices.Equal(costs, []float64{1, 2, 3}) {
		t.Errorf("applyBatch = %v (input now %v), want [4 6 3] and the input unchanged", got, costs)
	}
}

func TestProcField(t *testing.T) {
	text := "rchar: 10\nsyscr: 42\nsyscw: 7\n"
	if got := procField(text, "syscr:"); got != 42 {
		t.Errorf("syscr = %d, want 42", got)
	}
	if got := procField(text, "VmHWM:"); got != 0 {
		t.Errorf("absent key = %d, want 0", got)
	}
}

// The byte check must pass the daemon's exact bytes and count any
// other answer, or an answer naming an unpublished epoch, as a
// mismatch.
func TestRefCacheCheckCatchesMismatches(t *testing.T) {
	g := servingTopology(3, true)
	st := newEpochState(g.Costs())
	batch := updateStream(3, 0, g.N(), 1, true)[0]
	st.costs = append(st.costs, applyBatch(st.costs[1], batch))
	rc := &refCache{g: g, st: st, solver: core.NewSolver(),
		views: map[uint64]*graph.NodeGraph{}, quotes: map[refKey][]byte{}}

	p := pair{7, 0}
	want, err := rc.quote(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte(`"path"`)) {
		t.Fatalf("reference quote %s has no path", want)
	}

	flipped := append([]byte(nil), want...)
	flipped[len(flipped)/2] ^= 1
	ph := &phase{reqs: []pair{p, p, p}, epoch: []uint64{2, 2, 9}, sampleIdx: []int{0, 1, 2}}
	for _, b := range [][]byte{want, flipped, want} {
		ph.sampleOff = append(ph.sampleOff, len(ph.samples))
		ph.samples = append(ph.samples, b...)
	}
	var out bytes.Buffer
	mismatches, checked := rc.check(&report{out: &out}, ph)
	if checked != 3 || mismatches != 2 {
		t.Errorf("check = %d mismatches of %d, want 2 of 3\n%s", mismatches, checked, out.String())
	}
}
