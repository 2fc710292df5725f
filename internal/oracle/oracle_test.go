package oracle

import (
	"math"
	"math/rand/v2"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/sp"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.NodeGraph
		src  int
	}{
		{"figure2", graph.Figure2(), 1},
		{"figure4", graph.Figure4(), 8},
		{"ring", graph.Ring(9), 4},
	}
	for _, tc := range cases {
		data, err := EncodeTopology(tc.g, tc.src)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		g, src, err := DecodeTopology(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if src != tc.src || g.N() != tc.g.N() || g.M() != tc.g.M() {
			t.Fatalf("%s: round trip changed shape: src %d n %d m %d", tc.name, src, g.N(), g.M())
		}
		for v := 0; v < g.N(); v++ {
			if g.Cost(v) != tc.g.Cost(v) {
				t.Errorf("%s: node %d cost %g != %g", tc.name, v, g.Cost(v), tc.g.Cost(v))
			}
		}
		for _, e := range tc.g.Edges() {
			if !g.HasEdge(e[0], e[1]) {
				t.Errorf("%s: lost edge %v", tc.name, e)
			}
		}
	}
}

func TestDecodeTopologyErrors(t *testing.T) {
	for _, data := range [][]byte{nil, {}, {7}} {
		if _, _, err := DecodeTopology(data); err == nil {
			t.Errorf("decoded %v without error", data)
		}
	}
	// Two bytes suffice: the minimal input is a 2-node edgeless graph.
	g, src, err := DecodeTopology([]byte{0, 0})
	if err != nil || g.N() != 2 || src != 1 {
		t.Fatalf("minimal decode: g=%v src=%d err=%v", g, src, err)
	}
}

func TestEncodeTopologyRejectsUnrepresentable(t *testing.T) {
	big := graph.Ring(MaxNodes + 1)
	if _, err := EncodeTopology(big, 1); err == nil {
		t.Error("encoded a graph above MaxNodes")
	}
	costly := graph.Ring(4)
	costly.SetCost(2, 1e6)
	if _, err := EncodeTopology(costly, 1); err == nil {
		t.Error("encoded a cost above the byte range")
	}
	if _, err := EncodeTopology(graph.Ring(4), 0); err == nil {
		t.Error("encoded source 0 (the destination)")
	}
}

func TestCanonicalizeMakesGeneric(t *testing.T) {
	g := graph.Ring(8) // all costs zero, maximally tied
	c := Canonicalize(g)
	seen := map[float64]bool{}
	for v := 0; v < c.N(); v++ {
		cost := c.Cost(v)
		if cost <= 0 {
			t.Errorf("node %d: canonicalized cost %g not positive", v, cost)
		}
		if seen[cost] {
			t.Errorf("node %d: duplicate canonicalized cost %g", v, cost)
		}
		seen[cost] = true
	}
	if g.Cost(3) != 0 {
		t.Error("Canonicalize mutated its input")
	}
}

// TestAgreeInfAware pins the comparator semantics the whole oracle
// rests on: monopolist +Inf prices agree with each other and with
// nothing else (the naive math.Abs(Inf−Inf) = NaN trap).
func TestAgreeInfAware(t *testing.T) {
	inf := math.Inf(1)
	if !agree(inf, inf, 1e-9) {
		t.Error("Inf should agree with Inf")
	}
	if agree(inf, 1e308, 1e-9) || agree(3, inf, 1e-9) {
		t.Error("Inf agreed with a finite value")
	}
	if !agree(1e12, 1e12*(1+1e-13), 1e-9) {
		t.Error("relative tolerance not applied at large magnitude")
	}
	if agree(1, 1.001, 1e-9) {
		t.Error("clearly different values agreed")
	}
	if !atLeast(inf, inf, 1e-9) || !atLeast(inf, 5, 1e-9) || atLeast(5, inf, 1e-9) {
		t.Error("atLeast mishandles Inf")
	}
}

// TestCheckInstanceFixtures: the paper's own examples pass every
// invariant, including the distributed protocol.
func TestCheckInstanceFixtures(t *testing.T) {
	for name, g := range map[string]*graph.NodeGraph{
		"figure2": graph.Figure2(), "figure4": graph.Figure4(),
	} {
		res := CheckInstance(g, 0, Options{
			Truthfulness: true, Metamorphic: true, Distributed: true, Seed: 1,
		})
		for _, v := range res.Violations {
			t.Errorf("%s: %s", name, v)
		}
		for _, want := range []string{"engine-batch", "engine-set", "engine-link",
			"engine-all-sources", "engine-frontier", "engine-shared-table",
			"brute-reference", "neighborhood-brute", "individual-rationality",
			"truthfulness", "meta-scaling", "meta-relabel", "meta-monotone",
			"well-formed", "distributed"} {
			if res.Checks[want] == 0 {
				t.Errorf("%s: check %q never ran", name, want)
			}
		}
	}
}

// TestCheckInstanceFastOnFixtures: the fixtures have unique shortest
// paths, so the fast engine joins the agreement family.
func TestCheckInstanceFastOnFixtures(t *testing.T) {
	g := graph.Figure4()
	res := CheckInstance(g, 0, Options{Fast: true})
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	if res.Checks["engine-fast"] == 0 {
		t.Error("fast engine never ran")
	}
}

// TestCheckInstanceHandlesAdversarialShapes: disconnected graphs,
// zero costs, monopolist chains and 2-node graphs must produce skips
// or +Inf payments, never violations or panics.
func TestCheckInstanceHandlesAdversarialShapes(t *testing.T) {
	shapes := map[string]*graph.NodeGraph{}

	disc := graph.NewNodeGraph(6)
	disc.AddEdge(1, 2)
	disc.AddEdge(4, 5) // destination 0 unreachable from everywhere
	shapes["disconnected"] = disc

	zero := graph.Ring(5) // all costs zero: every path ties
	shapes["zero-cost"] = zero

	line := graph.NewNodeGraph(5) // 0-1-2-3-4: all relays monopolists
	for v := 0; v+1 < 5; v++ {
		line.AddEdge(v, v+1)
		line.SetCost(v, float64(v))
	}
	shapes["single-path"] = line

	pair := graph.NewNodeGraph(2)
	pair.AddEdge(0, 1)
	shapes["two-node"] = pair

	for name, g := range shapes {
		res := CheckInstance(g, 0, Options{Truthfulness: true, Metamorphic: true, Seed: 2})
		for _, v := range res.Violations {
			t.Errorf("%s: %s", name, v)
		}
	}
	if res := CheckInstance(graph.NewNodeGraph(1), 0, Options{}); !res.OK() || res.Skips["degenerate"] == 0 {
		t.Error("1-node graph not skipped as degenerate")
	}
}

// TestMonopolistPricedAtInf: on a pure chain every relay's payment is
// +Inf in every engine, and the oracle agrees rather than tripping on
// Inf arithmetic.
func TestMonopolistPricedAtInf(t *testing.T) {
	line := graph.NewNodeGraph(4)
	line.AddEdge(0, 1)
	line.AddEdge(1, 2)
	line.AddEdge(2, 3)
	line.SetCost(1, 2)
	line.SetCost(2, 3)
	q, err := core.UnicastQuote(line, 3, 0, core.EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Monopolists()) != 2 {
		t.Fatalf("want 2 monopolists, got %v", q.Monopolists())
	}
	res := CheckInstance(line, 0, Options{})
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestLinkEmbedEquivalence pins the cross-model identity the oracle
// exploits: on the tail-weighted embedding, §III.F link payments are
// the node-model VCG payments exactly.
func TestLinkEmbedEquivalence(t *testing.T) {
	g := graph.Figure4()
	lg := LinkEmbed(g)
	for s := 1; s < g.N(); s++ {
		nodeQ, err := core.UnicastQuote(g, s, 0, core.EngineNaive)
		if err != nil {
			t.Fatal(err)
		}
		linkQ, err := core.LinkQuote(lg, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if linkQ.Cost != nodeQ.Cost+g.Cost(s) {
			t.Errorf("s=%d: link cost %g != node cost %g + c_s %g", s, linkQ.Cost, nodeQ.Cost, g.Cost(s))
		}
		if k, ok := paymentsAgree(nodeQ.Payments, linkQ.Payments, 1e-9); !ok {
			t.Errorf("s=%d: payments differ at node %d", s, k)
		}
	}
}

// TestCompareQuoteDetectsTampering: the oracle must actually fire —
// feed it a doctored quote and expect a violation, not silence.
func TestCompareQuoteDetectsTampering(t *testing.T) {
	g := graph.Figure2()
	q, err := core.UnicastQuote(g, 1, 0, core.EngineNaive)
	if err != nil {
		t.Fatal(err)
	}
	bad := &core.Quote{Source: q.Source, Target: q.Target, Path: q.Path,
		Cost: q.Cost, Payments: map[int]float64{}}
	for k, p := range q.Payments {
		bad.Payments[k] = p
	}
	relay := q.Relays()[0]
	bad.Payments[relay] += 0.5
	res := newResult()
	compareQuote(res, "engine-test", q, bad, 0, 1e-9)
	if len(res.Violations) != 1 || res.Violations[0].Node != relay {
		t.Fatalf("tampered payment not flagged: %v", res.Violations)
	}
	bad.Payments[relay] -= 0.5
	bad.Cost += 1
	res = newResult()
	compareQuote(res, "engine-test", q, bad, 0, 1e-9)
	if len(res.Violations) != 1 {
		t.Fatalf("tampered cost not flagged: %v", res.Violations)
	}
}

func TestPickSources(t *testing.T) {
	if got := pickSources(5, 2, 0); len(got) != 4 {
		t.Errorf("want all 4 sources, got %v", got)
	}
	got := pickSources(100, 0, 8)
	if len(got) != 8 {
		t.Fatalf("want 8 sampled sources, got %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Errorf("sampled sources not strictly increasing: %v", got)
		}
	}
}

// TestMinimizeShrinksCounterexample drives the minimizer with an
// impossible tolerance — every comparison fails, so any graph is a
// counterexample — and checks it shrinks a 3×3 grid to a single edge
// while the failure keeps reproducing.
func TestMinimizeShrinksCounterexample(t *testing.T) {
	g := graph.Grid(3, 3)
	for v := 0; v < g.N(); v++ {
		g.SetCost(v, float64(v%5)+1)
	}
	opt := Options{Tol: -1} // nothing agrees with anything
	min, v, ok := Minimize(g, 0, opt, "engine-batch")
	if !ok {
		t.Fatal("failure did not reproduce")
	}
	if v.Check != "engine-batch" {
		t.Fatalf("minimized violation has check %q", v.Check)
	}
	if min.M() >= g.M() {
		t.Fatalf("no edges removed: %d -> %d", g.M(), min.M())
	}
	if min.M() != 1 {
		t.Errorf("expected a single surviving edge, got %d", min.M())
	}
}

// TestMinimizeRejectsNonFailure: a healthy graph yields ok=false and
// the untouched input.
func TestMinimizeRejectsNonFailure(t *testing.T) {
	g := graph.Figure2()
	min, _, ok := Minimize(g, 0, Options{}, "engine-batch")
	if ok {
		t.Fatal("healthy graph reported as reproducing a failure")
	}
	if min.M() != g.M() {
		t.Fatal("non-failure input was modified")
	}
}

// TestSoakCampaignClean: a down-scaled soak (the full ≥500-topology
// campaign runs via `unicast-sim -figure oracle`; see EXPERIMENTS.md)
// must come back violation-free with every family and check hit.
func TestSoakCampaignClean(t *testing.T) {
	rep := Soak(SoakOptions{Topologies: 36, MaxN: 40, Seed: 2004, DistEvery: 6, FaultEvery: 2})
	for _, v := range rep.Result.Violations {
		t.Errorf("%s", v)
	}
	if len(rep.Counterexamples) != 0 {
		t.Errorf("clean run produced %d counterexamples", len(rep.Counterexamples))
	}
	for _, want := range []string{"engine-fast", "engine-batch", "engine-link", "engine-shared-table",
		"distributed", "distributed-faulted", "truthfulness", "brute-reference"} {
		if rep.Result.Checks[want] == 0 {
			t.Errorf("soak never ran check %q", want)
		}
	}
}

// TestSoakDeterministic: same seed, same counters — the parallel
// schedule must not leak into results.
func TestSoakDeterministic(t *testing.T) {
	a := Soak(SoakOptions{Topologies: 12, MaxN: 24, Seed: 42, DistEvery: 5})
	b := Soak(SoakOptions{Topologies: 12, MaxN: 24, Seed: 42, DistEvery: 5})
	if len(a.Result.Checks) != len(b.Result.Checks) {
		t.Fatal("check sets differ across identical runs")
	}
	for k, av := range a.Result.Checks {
		if b.Result.Checks[k] != av {
			t.Errorf("check %q: %d vs %d", k, av, b.Result.Checks[k])
		}
	}
	for k, av := range a.Result.Skips {
		if b.Result.Skips[k] != av {
			t.Errorf("skip %q: %d vs %d", k, av, b.Result.Skips[k])
		}
	}
}

// TestSharedTableBitwiseUnderTies runs the engine-shared-table check
// over the two cost families that make ties dense: quarter-unit costs
// on grids (many equal-cost lattice paths) and {0..3} integer costs
// with zeros on random graphs (ties plus zero-cost relays, where the
// fast engine's genericity assumption fails but its agreement with
// itself must not). Each instance shares one destination table
// across every source, as an epoch does in the daemon. The test also
// counts sources whose least cost path passes a tied predecessor, so
// a family that stopped producing ties would fail rather than pass
// vacuously.
func TestSharedTableBitwiseUnderTies(t *testing.T) {
	families := []struct {
		name string
		gen  func(rng *rand.Rand) *graph.NodeGraph
	}{
		{"quarter-grid", func(rng *rand.Rand) *graph.NodeGraph {
			g := graph.Grid(2+rng.IntN(7), 2+rng.IntN(7))
			for v := 0; v < g.N(); v++ {
				g.SetCost(v, 0.25*float64(1+rng.IntN(8)))
			}
			return g
		}},
		{"costs-0..3", func(rng *rand.Rand) *graph.NodeGraph {
			n := 6 + rng.IntN(40)
			g := graph.RandomBiconnected(n, 0.1+0.2*rng.Float64(), rng)
			for v := 0; v < n; v++ {
				g.SetCost(v, float64(rng.IntN(4)))
			}
			return g
		}},
	}
	for fi, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			res := newResult()
			tied := 0
			for i := 0; i < 60; i++ {
				rng := rand.New(rand.NewPCG(0x7ab1e, uint64(fi)<<32|uint64(i)))
				g := fam.gen(rng)
				dest := rng.IntN(g.N())
				tab := core.NewSolver().DestTable(g, dest)
				sv := core.NewSolver()
				for s := 0; s < g.N(); s++ {
					if s == dest {
						continue
					}
					checkSharedTable(res, g, s, dest, tab, sv)
					if pathHasTie(g, s, dest) {
						tied++
					}
				}
			}
			for _, v := range res.Violations {
				t.Errorf("%s", v)
			}
			if res.Checks["engine-shared-table"] == 0 || tied == 0 {
				t.Errorf("%d checks over %d tied paths: the family no longer exercises ties",
					res.Checks["engine-shared-table"], tied)
			}
		})
	}
}

// pathHasTie reports whether some node on the s-t least cost path
// has two predecessors in SPT(s) at exactly its distance — the place
// where Dijkstra's tie-break, and nothing else, picks the path.
func pathHasTie(g *graph.NodeGraph, s, t int) bool {
	tree := sp.NodeDijkstra(g, s, nil)
	if !tree.Reachable(t) {
		return false
	}
	for _, v := range tree.PathTo(t)[1:] {
		preds := 0
		for _, u := range g.Neighbors(v) {
			through := tree.Dist[u] + g.Cost(u)
			if u == s {
				through = 0
			}
			if math.Float64bits(through) == math.Float64bits(tree.Dist[v]) {
				preds++
			}
		}
		if preds > 1 {
			return true
		}
	}
	return false
}

// TestBitwiseChecksBite: the bitwise checks must report a quote that
// differs from its reference in any one field — path, one ulp of
// cost, a missing payment entry, one ulp of a payment — and the
// all-sources check must report a slot that disagrees with the
// per-source quote about whether a path exists. A check that cannot
// fail would hold nothing.
func TestBitwiseChecksBite(t *testing.T) {
	g := graph.Figure2()
	ref, err := core.UnicastQuote(g, 1, 0, core.EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Path) < 3 {
		t.Fatalf("figure 2 quote %v has no relay to corrupt", ref.Path)
	}
	clone := func() *core.Quote {
		q := *ref
		q.Path = append([]int(nil), ref.Path...)
		q.Payments = make(map[int]float64, len(ref.Payments))
		for k, p := range ref.Payments {
			q.Payments[k] = p
		}
		return &q
	}
	relay := ref.Path[1]
	mutants := map[string]func(q *core.Quote){
		"path": func(q *core.Quote) { q.Path[1] = q.Path[0] },
		"cost": func(q *core.Quote) { q.Cost = math.Nextafter(q.Cost, math.Inf(1)) },
		"payment count": func(q *core.Quote) {
			delete(q.Payments, relay)
		},
		"payment bits": func(q *core.Quote) {
			q.Payments[relay] = math.Nextafter(q.Payments[relay], math.Inf(1))
		},
	}
	for name, mutate := range mutants {
		q := clone()
		mutate(q)
		res := newResult()
		exactQuote(res, "engine-under-test", ref, q)
		if len(res.Violations) != 1 {
			t.Errorf("%s mutant: %d violations, want 1", name, len(res.Violations))
		}
	}
	res := newResult()
	exactQuote(res, "engine-under-test", ref, clone())
	if len(res.Violations) != 0 {
		t.Errorf("unmutated clone flagged: %v", res.Violations)
	}

	res = newResult()
	checkAllSources(res, g, 1, 0, nil)
	disconnected := graph.NewNodeGraph(3)
	disconnected.AddEdge(0, 1)
	checkAllSources(res, disconnected, 2, 0, ref)
	if len(res.Violations) != 2 || res.Checks["engine-all-sources"] != 2 {
		t.Errorf("missing and phantom all-sources slots: %d violations over %d checks, want 2 over 2",
			len(res.Violations), res.Checks["engine-all-sources"])
	}
}
