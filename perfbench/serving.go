package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os/exec"
	"time"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// servingConfig fixes one serving workload's offered load. Both run
// an open loop well under saturation: at saturation the daemon's
// write batching follows the scheduler, and CPU per quote and
// throughput were measured to swing by more than any bound worth
// gating on.
type servingConfig struct {
	name string
	// grid selects quarter-unit declared costs and updates (drift)
	// instead of U[1,10) floats.
	grid bool
	// rate is the offered quote rate, in quotes per second.
	rate float64
	// updRate is the offered /update batch rate during the warm-up
	// and timed phases, in batches per second (0 = no updates).
	updRate float64
	// checkEvery selects every Nth answered quote for the byte check.
	checkEvery int
	// hotMemo fills the memo with the hot set before warm-up.
	hotMemo bool
	// idleSpin runs the idle spinner (spin.go) on the pinned CPU
	// while the daemon runs.
	idleSpin bool
}

var (
	// hotBinary offers about a third of the rate the pipelined binary
	// plane saturates at on a 2-vCPU host; after warm-up every answer
	// is a memo hit. On the one CPU the run is pinned to, the daemon
	// then uses about a third of the CPU and the generator under a
	// fifth.
	hotBinary = servingConfig{name: "hot-binary", rate: 100000, checkEvery: 64, hotMemo: true}
	// driftBinary sizes its quote rate so memo misses, at about
	// 2.8 ms of daemon CPU each on a 2.7 GHz Xeon, use about a third
	// of one core; four epoch flips a second leave almost every quote
	// a miss. Its CPU idles between quotes, so it runs the idle
	// spinner; hot-binary keeps its CPU busy without one, and with one
	// its CPU per quote swung by a quarter from run to run.
	driftBinary = servingConfig{name: "drift-binary", grid: true, rate: 120, updRate: 4, checkEvery: 4, idleSpin: true}
)

const (
	// setupSpawns daemons are started per run; setup_s is their
	// median spawn-to-ready time.
	setupSpawns = 7
	// warmupSeconds of load at the offered rate precede the timed
	// phase, so the heap, the memo and the connection loops are warm.
	warmupSeconds = 1
	// updateProbes is how many /update round trips hot-binary times
	// after its timed phase, one at a time on the idle daemon, spread
	// probeGap apart so one burst of host interference cannot hit
	// them all.
	updateProbes = 300
	probeGap     = 5 * time.Millisecond
	// rttProbes is the number of lock-step round trips of the traced run.
	rttProbes = 2000
	// replayQuotes caps the memo misses a traced replay re-executes.
	replayQuotes = 300
	// maxPrinted bounds the mismatch lines printed per run.
	maxPrinted = 3
)

func runServing(opt options, cfg servingConfig, rep *report) error {
	if opt.daemon == "" {
		return errors.New("--daemon is required for the serving workloads")
	}
	g := servingTopology(opt.seed, cfg.grid)
	n := g.N()
	topoPath, topoBlob, err := writeTopology(opt.workdir, fmt.Sprintf("%s-%d.json", cfg.name, opt.seed), g)
	if err != nil {
		return err
	}
	spawns := setupSpawns
	if opt.trace {
		spawns = 1
	}
	// The spinner runs from the first spawn until the daemon is
	// stopped, on every path.
	var spinner *exec.Cmd
	if cfg.idleSpin && pinnedCPU >= 0 {
		if spinner, err = startSpinner(pinnedCPU); err != nil {
			rep.printf("# idle spinner failed, running without: %v", err)
		}
	}
	defer func() {
		if spinner != nil {
			stopSpinner(spinner)
		}
	}()
	d, setups, err := spawnForSetup(opt.daemon, topoPath, spawns)
	if err != nil {
		return err
	}
	defer func() {
		if d != nil {
			d.kill()
		}
	}()

	st := newEpochState(g.Costs())
	warmCount := int(cfg.rate * warmupSeconds)
	timedCount := int(cfg.rate * float64(opt.seconds))
	var phases []*phase
	var warm, timed *phase
	var hot []pair
	if cfg.hotMemo {
		hot = hotSet(opt.seed, n)
		// Memo fill: every hot pair once, each answer checked.
		phases = append(phases, &phase{reqs: hot, rate: float64(len(hot)) * 10, checkEvery: 1})
		warm = &phase{reqs: hotStream(opt.seed, 0, hot, warmCount), rate: cfg.rate, checkEvery: cfg.checkEvery}
		timed = &phase{reqs: hotStream(opt.seed, 1, hot, timedCount), rate: cfg.rate, checkEvery: cfg.checkEvery}
	} else {
		warm = &phase{reqs: accessStream(opt.seed, 0, n, warmCount), rate: cfg.rate, checkEvery: cfg.checkEvery,
			updates: updateStream(opt.seed, 0, n, int(cfg.updRate*warmupSeconds), cfg.grid), updRate: cfg.updRate}
		timed = &phase{reqs: accessStream(opt.seed, 1, n, timedCount), rate: cfg.rate, checkEvery: cfg.checkEvery,
			updates: updateStream(opt.seed, 1, n, int(cfg.updRate*float64(opt.seconds)), cfg.grid), updRate: cfg.updRate}
	}
	phases = append(phases, warm)
	for _, ph := range phases {
		if err := runPhase(d, st, ph); err != nil {
			return err
		}
	}
	firstTimedEpoch := len(st.costs) - 1
	win, err := d.openWindow()
	if err != nil {
		return err
	}
	timed.cpuPID = d.pid()
	if err := runPhase(d, st, timed); err != nil {
		return err
	}
	if err := d.closeWindow(win); err != nil {
		return err
	}
	phases = append(phases, timed)

	updRTT := timed.updRTT
	if cfg.updRate == 0 {
		probes := &phase{updates: updateStream(opt.seed, 2, n, updateProbes, cfg.grid)}
		for _, batch := range probes.updates {
			time.Sleep(probeGap)
			rtt, err := postUpdate(d, st, batch)
			if err != nil {
				probes.updFailed++
				continue
			}
			updRTT = append(updRTT, rtt)
		}
		phases = append(phases, probes)
	}

	tr := newTracer(opt.trace)
	if opt.trace {
		if err := rttProbe(tr, d.binAddr, timed.reqs[:16], rttProbes); err != nil {
			return err
		}
	}
	if spinner != nil {
		stopSpinner(spinner)
		spinner = nil
	}
	stopErr := d.stop()
	d = nil
	if stopErr != nil {
		rep.printf("# daemon drain failed: %v", stopErr)
	}
	o := checkServing(rep, g, st, phases, timed, stopErr)
	if o.answered == 0 {
		return errors.New("no quote of the timed phase was answered")
	}
	phaseSecs := float64(timed.dueAt(len(timed.reqs)).Sub(timed.start)) / float64(time.Second)

	if !opt.trace {
		lat := append([]int64(nil), timed.lat...)
		p95, n95 := percentile(lat, 95)
		p99, n99 := percentile(lat, 99)
		rep.printf("whole phase: latency p95 %.1f us (%d samples above), p99 %.1f us (%d samples above, not gated), %d samples; cpu %.3f us/quote",
			clampUS(p95, phaseSecs), n95, clampUS(p99, phaseSecs), n99, len(lat),
			us(win.proc1.cpu-win.proc0.cpu)/float64(o.answered))
		timed.windowStats(phaseSecs).report(rep, fmt.Sprintf("windows of %v", windowLen))
		rep.endToEnd("update_ms", us(median(updRTT))/1000, unitMS)
		rep.endToEnd("setup_s", median(setups).Seconds(), unitS)
		rep.endToEnd("rss_mb", float64(win.proc1.hwmKB)/1024, unitMB)
		return nil
	}

	answered := float64(o.answered)
	runtimeLayers(rep, win.proc0, win.proc1, win.obs0.mem, win.obs1.mem, answered)
	hits, misses := win.counter("serve.binary.frame_cache_hits"), win.counter("serve.binary.frame_cache_misses")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = hits / (hits + misses)
	}
	rep.perLayer("memo.hit_ratio", hitRatio, unitRatio)
	rep.perLayer("memo.trees_per_q", win.counter("serve.lcp_trees_built")/answered, unitCount)
	rep.perLayer("update.epochs_per_s", win.counter("serve.batches_applied")/phaseSecs, unitRate)
	lateMed, _ := percentile(append([]int64(nil), timed.late...), 50)
	rep.perLayer("load.late_us", float64(lateMed)/1000, unitUS)

	// The replay walks the epochs the timed phase published (for
	// hot-binary: the loaded topology, then its probe updates) and
	// re-prices what the daemon computed on them: drift-binary's
	// answered quotes, hot-binary's memo fill.
	in := &replayInput{topology: topoBlob}
	if cfg.hotMemo {
		firstTimedEpoch = 1
		for _, p := range hot {
			in.quotes = append(in.quotes, replayQuote{p, 0})
		}
	}
	for e := firstTimedEpoch; e < len(st.costs); e++ {
		in.epochs = append(in.epochs, st.costs[e])
	}
	for i, p := range timed.reqs {
		if len(in.quotes) >= replayQuotes || cfg.hotMemo {
			break
		}
		if e := int(timed.epoch[i]); e >= firstTimedEpoch {
			in.quotes = append(in.quotes, replayQuote{p, e - firstTimedEpoch})
		}
	}
	tot, overhead, err := tracedReplay(tr, in)
	if err != nil {
		return err
	}
	// The research path on the served instance: generating it, and
	// pricing every source toward v0 with the batch engine.
	root := tr.begin("topology", -1, 0)
	s := tr.begin("wireless.place", root, 0)
	servingTopology(opt.seed, cfg.grid)
	tr.end(s)
	tr.end(root)
	study(tr, g.WithCosts(st.costs[len(st.costs)-1]), 0)
	return finishLayers(rep, tr, opt, tot, overhead)
}

// spawnForSetup starts the daemon spawns times, stopping each before
// the next, and returns the last one running with every
// spawn-to-ready time.
func spawnForSetup(bin, topo string, spawns int) (*daemon, []time.Duration, error) {
	var d *daemon
	var setups []time.Duration
	for k := 0; k < spawns; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, nil, err
			}
		}
		var ready time.Duration
		var err error
		if d, ready, err = startDaemon(bin, topo); err != nil {
			return nil, nil, err
		}
		setups = append(setups, ready)
	}
	return d, setups, nil
}

// checkServing counts the run's operations against their failures —
// every phase's refusals, losses and stale epochs, failed updates,
// the byte check of the sampled answers against a direct solver run
// on the answering epoch, and the daemon's drain — reports the
// timed phase's validity, and returns the timed phase's outcome.
func checkServing(rep *report, g *graph.NodeGraph, st *epochState, phases []*phase, timed *phase, stopErr error) outcome {
	refs := &refCache{g: g, st: st, solver: core.NewSolver(),
		views: map[uint64]*graph.NodeGraph{}, quotes: map[refKey][]byte{}}
	quotes, updates, qFailed, uFailed, mismatches, checked := 0, 0, 0, 0, 0, 0
	var o outcome
	for _, ph := range phases {
		po := ph.outcome()
		if ph == timed {
			o = po
		}
		quotes += po.sent
		qFailed += ph.quoteFailures(po)
		if po.missing > 0 {
			rep.printf("# %d responses never arrived (%v)", po.missing, ph.recvErr)
		}
		updates += len(ph.updates)
		uFailed += ph.updFailed
		if po.stale > 0 {
			rep.printf("# %d answers came from an epoch older than one acknowledged before their send", po.stale)
		}
		m, c := refs.check(rep, ph)
		mismatches += m
		checked += c
	}
	drainFailed := 0
	if stopErr != nil {
		drainFailed = 1
	}
	rep.ops("quotes", quotes, qFailed)
	rep.ops("updates", updates, uFailed)
	rep.ops("byte-checks", checked, mismatches)
	rep.ops("daemon-drain", 1, drainFailed)
	invalid := 0
	if o.lateShare > maxLateShare {
		invalid = 1
	}
	rep.printf("invalid_runs %d (%.3f%% of requests sent more than %v late; limit %.0f%%)",
		invalid, 100*o.lateShare, lateLimit, 100*maxLateShare)
	return o
}

// runtimeLayers reports one process's kernel and Go-runtime per-layer
// metrics over a timed phase in which it served or computed quotes.
func runtimeLayers(rep *report, p0, p1 procSample, m0, m1 memStats, quotes float64) {
	perKQ := func(d int64) float64 { return float64(d) / quotes * 1000 }
	gcs := float64(m1.NumGC - m0.NumGC)
	pause := 0.0
	if gcs > 0 {
		pause = float64(m1.PauseTotalNs-m0.PauseTotalNs) / gcs / 1000
	}
	rep.perLayer("binary.reads_per_kq", perKQ(p1.syscr-p0.syscr), unitCount)
	rep.perLayer("binary.writes_per_kq", perKQ(p1.syscw-p0.syscw), unitCount)
	rep.perLayer("proc.ctxsw_per_kq", perKQ(p1.ctxsw-p0.ctxsw), unitCount)
	rep.perLayer("proc.gc_per_kq", gcs/quotes*1000, unitCount)
	rep.perLayer("proc.gc_pause_us", pause, unitUS)
	rep.perLayer("proc.alloc_b_per_q", float64(m1.TotalAlloc-m0.TotalAlloc)/quotes, unitB)
}

// finishLayers reports the span-derived per-layer metrics a workload's
// replay leaves in tr, then writes the spans.
func finishLayers(rep *report, tr *tracer, opt options, tot replayTotals, overhead float64) error {
	stats := tr.stats()
	bucket := 0.0
	if tot.epochs > 0 {
		bucket = float64(tot.bucketEpochs) / float64(tot.epochs)
	}
	rep.perLayer("graph.load_ms", medianUS(stats, "graph.load")/1000, unitMS)
	rep.perLayer("graph.shard_ms", medianUS(stats, "graph.shard")/1000, unitMS)
	rep.perLayer("graph.flip_us", medianUS(stats, "graph.flip"), unitUS)
	rep.perLayer("graph.quantum_us", medianUS(stats, "graph.quantum"), unitUS)
	rep.perLayer("pq.bucket_frac", bucket, unitRatio)
	rep.perLayer("sp.tree_us", medianUS(stats, "sp.tree"), unitUS)
	rep.perLayer("core.quote_us", medianUS(stats, "core.quote"), unitUS)
	rep.perLayer("core.relays_per_q", float64(tot.relays)/float64(tot.quotes), unitCount)
	rep.perLayer("memo.marshal_us", medianUS(stats, "memo.marshal"), unitUS)
	rep.perLayer("wire.encode_ns", perOpNS(stats, "wire.encode"), unitNS)
	rep.perLayer("wire.decode_ns", perOpNS(stats, "wire.decode"), unitNS)
	rep.perLayer("wire.resp_bytes", float64(tot.respBytes)/float64(tot.frames), unitB)
	rep.perLayer("binary.rtt_us", medianUS(stats, "binary.rtt"), unitUS)
	rep.perLayer("core.batch_ms", medianUS(stats, "core.batch")/1000, unitMS)
	rep.perLayer("experiment.measure_us", medianUS(stats, "experiment.measure"), unitUS)
	rep.perLayer("wireless.place_ms", medianUS(stats, "wireless.place")/1000, unitMS)
	rep.perLayer("trace.residual_frac", tr.residualFrac(), unitRatio)
	rep.perLayer("trace.overhead_frac", overhead, unitRatio)
	return tr.finish(rep, opt.workdir, fmt.Sprintf("trace-%s-%d.jsonl", opt.workload, opt.seed))
}

// clampUS converts a latency to µs; a failed request (which misses
// every limit) reads as the whole phase.
func clampUS(ns int64, phaseSecs float64) float64 {
	if ns == latFailed {
		return phaseSecs * 1e6
	}
	return float64(ns) / 1000
}

type refKey struct {
	p     pair
	epoch uint64
}

// refCache computes reference answers: the global-id quote JSON a
// direct core.Solver run produces on the declared costs of an epoch.
// The served topology is one component, so shard-local ids are the
// global ids and the daemon's bytes must match these exactly.
type refCache struct {
	g      *graph.NodeGraph
	st     *epochState
	solver *core.Solver
	views  map[uint64]*graph.NodeGraph
	quotes map[refKey][]byte
}

func (rc *refCache) quote(p pair, epoch uint64) ([]byte, error) {
	key := refKey{p, epoch}
	if b, ok := rc.quotes[key]; ok {
		return b, nil
	}
	if epoch == 0 || epoch >= uint64(len(rc.st.costs)) {
		return nil, fmt.Errorf("epoch %d was never published", epoch)
	}
	v := rc.views[epoch]
	if v == nil {
		v = rc.g.WithCosts(rc.st.costs[epoch])
		rc.views[epoch] = v
	}
	q, err := rc.solver.Quote(v, int(p.src), int(p.dst), core.EngineFast)
	if err != nil {
		return nil, err
	}
	b, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	rc.quotes[key] = b
	return b, nil
}

// check compares the phase's sampled answers byte for byte with the
// reference and returns the mismatches and the number checked.
func (rc *refCache) check(rep *report, ph *phase) (mismatches, checked int) {
	for k, i := range ph.sampleIdx {
		end := len(ph.samples)
		if k+1 < len(ph.sampleOff) {
			end = ph.sampleOff[k+1]
		}
		got := ph.samples[ph.sampleOff[k]:end]
		want, err := rc.quote(ph.reqs[i], ph.epoch[i])
		checked++
		if err != nil || !bytes.Equal(got, want) {
			mismatches++
			if mismatches <= maxPrinted {
				rep.printf("# mismatch: quote %d->%d at epoch %d: served %s, direct solver %s (%v)",
					ph.reqs[i].src, ph.reqs[i].dst, ph.epoch[i], got, want, err)
			}
		}
	}
	return mismatches, checked
}
