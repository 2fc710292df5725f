package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"

	"truthroute/internal/core"
	"truthroute/internal/experiment"
	"truthroute/internal/graph"
	"truthroute/internal/sp"
	"truthroute/internal/wireless"
)

// Campaign shape: the §III.G node-cost overpayment study at one size,
// each instance priced toward the access point v0 = node 0 by the
// batch engine and measured, in process, with no socket.
const (
	campaignNodes     = 300
	campaignInstances = 48
	// windowStudies is the least number of instance studies in one
	// timed window (whole passes): enough for ten samples above its p95.
	windowStudies = 240
	// campaignSetups is the least number of times a run generates the
	// instance set; setup_s is the median.
	campaignSetups = 7
	// redrawRounds is the number of distinct cost redraws per
	// instance; each timed window re-prices every instance after one.
	redrawRounds = 4
	// campaignTol is the oracle's relative agreement tolerance between
	// the batch engine and the per-source engine.
	campaignTol = 1e-9
)

// campaignProcs pins the campaign process to one P, as the daemon is
// pinned: the batch engine is sequential, and a second P only adds
// background GC whose placement varies from run to run.
const campaignProcs = 1

// makeInstances generates the seeded deployments and their node-cost
// UDGs; each is a wireless.place span under one campaign.setup root.
func makeInstances(seed uint64, tr *tracer) []*graph.NodeGraph {
	root := tr.begin("campaign.setup", -1, 0)
	out := make([]*graph.NodeGraph, campaignInstances)
	for inst := range out {
		rng := newRand(seed, streamCampaign, uint64(inst))
		s := tr.begin("wireless.place", root, inst)
		dep := wireless.PlaceUniform(campaignNodes, regionSide, radioRange, rng)
		dep.Pos[0] = accessPoint
		out[inst] = dep.NodeCostUDG(costLo, costHi, rng)
		tr.end(s)
	}
	tr.end(root)
	return out
}

// study prices one instance and measures its overpayment, the
// research path of experiment.NodeCostCampaign for one instance.
func study(tr *tracer, g *graph.NodeGraph, inst int) (experiment.InstanceMetrics, []*core.Quote) {
	root := tr.begin("campaign.instance", -1, inst)
	s := tr.begin("core.batch", root, inst)
	quotes := core.AllUnicastQuotes(g, 0)
	tr.end(s)
	s = tr.begin("experiment.measure", root, inst)
	m := experiment.Measure(quotes, experiment.NodeOwnCost)
	tr.end(s)
	tr.end(root)
	return m, quotes
}

func runCampaign(opt options, rep *report) error {
	off := newTracer(false)

	// Set-up, repeated: once before the timed windows, once after each
	// untraced window (outside its figures) and at the end up to
	// campaignSetups, so the median samples the host's speed across
	// the whole run, as the windows do. Every generation must come out
	// identical to the first, which the run keeps. A collection before
	// and after each keeps the windows' garbage out of the set-up and
	// out of the peak RSS, and the generated set's out of what follows.
	var setups []time.Duration
	var insts []*graph.NodeGraph
	var first [sha256.Size]byte
	setupFailed := 0
	setUp := func() error {
		runtime.GC()
		t0 := now()
		set := makeInstances(opt.seed, off)
		setups = append(setups, now().Sub(t0))
		sum, err := digest(set)
		if err != nil {
			return err
		}
		if insts == nil {
			insts, first = set, sum
		} else if sum != first {
			setupFailed++
		}
		runtime.GC()
		return nil
	}
	if err := setUp(); err != nil {
		return err
	}

	// Timed windows of whole passes over the instance set until the
	// time is up. Every evaluation of an instance must reproduce its
	// first row exactly.
	rows := make([]string, len(insts))
	var w windowed
	var lat []int64 // every window's
	evals, rowFailed, sourceQuotes, redraws := 0, 0, 0, 0
	var redrawMS []float64 // per window, the median re-price time
	proc0, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	var peakKB int64
	deadline := now().Add(time.Duration(opt.seconds) * time.Second)
	for len(w.p50) == 0 || now().Before(deadline) {
		var winLat []int64
		winQuotes := 0
		steal0, ticks0 := hostTicks()
		cpu0, err := processCPU()
		if err != nil {
			return err
		}
		for len(winLat) < windowStudies {
			for i, g := range insts {
				t0 := now()
				m, quotes := study(off, g, i)
				winLat = append(winLat, int64(now().Sub(t0)))
				for _, q := range quotes {
					if q != nil {
						winQuotes++
					}
				}
				row := fmt.Sprintf("%v", m)
				if rows[i] == "" {
					rows[i] = row
				} else if row != rows[i] {
					rowFailed++
				}
			}
		}
		cpu1, err := processCPU()
		if err != nil {
			return err
		}
		steal1, ticks1 := hostTicks()
		steal := stealShare(steal0, ticks0, steal1, ticks1)
		w.steal = append(w.steal, steal)
		w.valid = append(w.valid, steal <= maxStealShare)
		// Cost drift on the research path, outside the quote CPU:
		// redraw every instance's costs and re-price it. Rounds cycle,
		// so the redraws are a fixed function of the seed.
		var winRedraws []time.Duration
		for i, g := range insts {
			c := redraw(opt.seed, len(redrawMS)%redrawRounds, i, g.N())
			t0 := now()
			core.AllUnicastQuotes(g.WithCosts(c), 0)
			winRedraws = append(winRedraws, now().Sub(t0))
		}
		redraws += len(winRedraws)
		redrawMS = append(redrawMS, us(median(winRedraws))/1000)
		// A traced run reports no setup_s; its per-layer runtime
		// counters cover the windows without set-up garbage.
		if !opt.trace {
			// rss_mb is the peak over the first set-up and the first
			// window, whose passes repeat in every later one: set-ups
			// into the windows' used heap would raise it by a varying
			// amount.
			if peakKB == 0 {
				p, err := readProc(os.Getpid())
				if err != nil {
					return err
				}
				peakKB = p.hwmKB
			}
			if err := setUp(); err != nil {
				return err
			}
		}
		evals += len(winLat)
		sourceQuotes += winQuotes
		lat = append(lat, winLat...)
		w.cpuPerQ = append(w.cpuPerQ, us(cpu1-cpu0)/float64(winQuotes))
		p50, _ := percentile(winLat, 50)
		p95, beyond := percentile(winLat, 95)
		w.p50 = append(w.p50, float64(p50)/1000)
		w.p95 = append(w.p95, float64(p95)/1000)
		w.samples, w.beyond95 = len(winLat), beyond
	}
	runtime.ReadMemStats(&mem1)
	proc1, err := readProc(os.Getpid())
	if err != nil {
		return err
	}
	for len(setups) < campaignSetups {
		if err := setUp(); err != nil {
			return err
		}
	}
	rep.ops("setups", len(setups), setupFailed)
	rep.ops("instance-studies", evals, rowFailed)

	// A sampled source per instance must match the per-source engine
	// within the oracle's tolerance.
	srcFailed := 0
	samples := make([]int, len(insts))
	for i, g := range insts {
		_, quotes := study(off, g, i)
		samples[i] = sampleSource(opt.seed, i, quotes)
		if samples[i] < 0 {
			continue
		}
		ref, err := core.UnicastQuote(g, samples[i], 0, core.EngineFast)
		if err != nil || !approxSameQuote(quotes[samples[i]], ref) {
			srcFailed++
			rep.printf("# mismatch: instance %d source %d: batch %v, per-source %v (%v)", i, samples[i], quotes[samples[i]], ref, err)
		}
	}
	rep.ops("source-checks", len(insts), srcFailed)

	var redrawCosts [][]float64 // instance 0's, for the replay
	for r := 0; r < redrawRounds; r++ {
		redrawCosts = append(redrawCosts, redraw(opt.seed, r, 0, insts[0].N()))
	}
	rep.ops("redraws", redraws, 0)

	if !opt.trace {
		p95, n95 := percentile(lat, 95)
		p99, n99 := percentile(lat, 99)
		rep.printf("all passes: instance latency p95 %.1f us (%d samples above), p99 %.1f us (%d samples above, not gated), %d samples",
			float64(p95)/1000, n95, float64(p99)/1000, n99, len(lat))
		w.report(rep, "windows of whole passes")
		rep.endToEnd("update_ms", medianF(redrawMS), unitMS)
		rep.endToEnd("setup_s", median(setups).Seconds(), unitS)
		rep.endToEnd("rss_mb", float64(peakKB)/1024, unitMB)
		return nil
	}

	// Per-layer: the campaign process's own kernel and runtime
	// counters over the timed passes; the serving-only layers (memo,
	// epochs, the load generator, the socket) read 0.
	runtimeLayers(rep, proc0, proc1, memStatsOf(&mem0), memStatsOf(&mem1), float64(sourceQuotes))
	rep.perLayer("memo.hit_ratio", 0, unitRatio)
	rep.perLayer("memo.trees_per_q", 0, unitCount)
	rep.perLayer("update.epochs_per_s", 0, unitRate)

	// Traced replay: instance generation and one study pass, then the
	// layer replay on instance 0 — its loaded JSON, its redraws as
	// epochs, and up to replayQuotes of its sources toward v0.
	tr := newTracer(true)
	insts = makeInstances(opt.seed, tr)
	for i, g := range insts {
		study(tr, g, i)
	}
	blob0, err := json.Marshal(insts[0])
	if err != nil {
		return err
	}
	in := &replayInput{topology: blob0, epochs: append([][]float64{insts[0].Costs()}, redrawCosts...)}
	reach := sp.NodeDijkstra(insts[0], 0, nil)
	for v := 1; v < insts[0].N() && len(in.quotes) < replayQuotes; v++ {
		if reach.Reachable(v) {
			in.quotes = append(in.quotes, replayQuote{pair{uint32(v), 0}, 0})
		}
	}
	tot, overhead, err := tracedReplay(tr, in)
	if err != nil {
		return err
	}
	if err := probeServing(opt, rep, tr, insts[0], in.quotes); err != nil {
		return err
	}
	return finishLayers(rep, tr, opt, tot, overhead)
}

// probeSeconds is the length of the campaign's serving probe.
const probeSeconds = 1

// probeServing serves campaign instance 0 from a daemon for the
// socket layers the campaign itself never touches: a short open loop
// of its sources' quotes toward v0 (for the generator's lateness) and
// the lock-step round-trip probe.
func probeServing(opt options, rep *report, tr *tracer, g *graph.NodeGraph, quotes []replayQuote) error {
	if opt.daemon == "" {
		return fmt.Errorf("--daemon is required for the campaign's traced run")
	}
	path, _, err := writeTopology(opt.workdir, fmt.Sprintf("campaign-%d-instance0.json", opt.seed), g)
	if err != nil {
		return err
	}
	ph := &phase{rate: 200, checkEvery: math.MaxInt}
	for len(ph.reqs) < int(ph.rate*probeSeconds) {
		ph.reqs = append(ph.reqs, quotes[len(ph.reqs)%len(quotes)].p)
	}
	d, _, err := startDaemon(opt.daemon, path)
	if err != nil {
		return err
	}
	err = runPhase(d, newEpochState(g.Costs()), ph)
	if err == nil {
		err = rttProbe(tr, d.binAddr, ph.reqs[:16], rttProbes)
	}
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	o := ph.outcome()
	rep.ops("probe-quotes", o.sent, ph.quoteFailures(o))
	lateMed, _ := percentile(ph.late, 50)
	rep.perLayer("load.late_us", float64(lateMed)/1000, unitUS)
	return nil
}

// digest hashes the JSON encoding of every instance graph, in order.
func digest(gs []*graph.NodeGraph) ([sha256.Size]byte, error) {
	h := sha256.New()
	for _, g := range gs {
		b, err := json.Marshal(g)
		if err != nil {
			return [sha256.Size]byte{}, err
		}
		h.Write(b)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum, nil
}

// sampleSource picks the seeded source of instance inst whose batch
// quote is checked, among sources that have one; -1 if none does.
func sampleSource(seed uint64, inst int, quotes []*core.Quote) int {
	var cands []int
	for v, q := range quotes {
		if q != nil && v != 0 {
			cands = append(cands, v)
		}
	}
	if len(cands) == 0 {
		return -1
	}
	return cands[newRand(seed, streamSamples, uint64(inst)).IntN(len(cands))]
}

// redraw draws instance inst's round-r cost vector, U[1,10) floats.
func redraw(seed uint64, r, inst, n int) []float64 {
	rng := newRand(seed, streamRedraw, uint64(r)<<16|uint64(inst))
	c := make([]float64, n)
	for v := range c {
		c[v] = costLo + (costHi-costLo)*rng.Float64()
	}
	return c
}

// approxSameQuote holds two quotes to the oracle's agreement rule:
// identical paths, and cost and every payment equal within the
// relative tolerance (or both +Inf).
func approxSameQuote(a, b *core.Quote) bool {
	if a == nil || b == nil || !slices.Equal(a.Path, b.Path) || !approxEqual(a.Cost, b.Cost) ||
		len(a.Payments) != len(b.Payments) {
		return false
	}
	for k, p := range a.Payments {
		q, ok := b.Payments[k]
		if !ok || !approxEqual(p, q) {
			return false
		}
	}
	return true
}

func approxEqual(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return a == b
	}
	return math.Abs(a-b) <= campaignTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func memStatsOf(m *runtime.MemStats) memStats {
	return memStats{NumGC: m.NumGC, PauseTotalNs: m.PauseTotalNs, TotalAlloc: m.TotalAlloc}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
