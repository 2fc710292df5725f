package core

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"truthroute/internal/graph"
	"truthroute/internal/obs"
	"truthroute/internal/sp"
)

func allSourcesTestGraph(n int, seed uint64, quantized bool) *graph.NodeGraph {
	rng := rand.New(rand.NewPCG(seed, 3))
	g := graph.RandomBiconnected(n, 3.0/float64(n), rng)
	for v := 0; v < n; v++ {
		if quantized {
			g.SetCost(v, 0.5+float64(rng.IntN(12))/4)
		} else {
			g.SetCost(v, 0.05+rng.Float64()*3)
		}
	}
	return g
}

// requirePerSourceEqual demands that AllQuotes on the default solver
// equals a per-source loop over Solver.Quote slot for slot: deep
// equality where a path exists, nil where Quote errors.
func requirePerSourceEqual(t *testing.T, g *graph.NodeGraph, dest int, engine Engine) []*Quote {
	t.Helper()
	sv := NewSolver()
	got, err := sv.AllQuotes(g, dest, engine)
	if err != nil {
		t.Fatalf("AllQuotes: %v", err)
	}
	if len(got) != g.N() {
		t.Fatalf("AllQuotes returned %d slots, want %d", len(got), g.N())
	}
	for s := range got {
		var want *Quote
		if s != dest {
			if q, err := sv.Quote(g, s, dest, engine); err == nil {
				want = q
			}
		}
		if !reflect.DeepEqual(got[s], want) {
			t.Fatalf("engine=%v dest=%d s=%d:\n all-sources %v\n per-source  %v", engine, dest, s, got[s], want)
		}
	}
	return got
}

// TestAllQuotesMatchesPerSourceQuote: pricing every source against
// one shared destination table is a pure reorganization of the work —
// quote-for-quote deep equality with per-source Quote, for both
// engines and both cost regimes (quantized costs run the bucket
// frontier, continuous ones the binary heap).
func TestAllQuotesMatchesPerSourceQuote(t *testing.T) {
	for _, engine := range []Engine{EngineFast, EngineNaive} {
		for _, quantized := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				g := allSourcesTestGraph(60, seed, quantized)
				requirePerSourceEqual(t, g, int(seed)%g.N(), engine)
			}
		}
	}
}

// TestAllQuotesZeroCosts: zero relay costs tie many paths; the shared
// table must still reproduce the per-source quotes exactly.
func TestAllQuotesZeroCosts(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	g := graph.RandomBiconnected(50, 0.1, rng)
	for v := 0; v < g.N(); v++ {
		g.SetCost(v, float64(rng.IntN(5))) // zeros present
	}
	for _, engine := range []Engine{EngineFast, EngineNaive} {
		requirePerSourceEqual(t, g, 0, engine)
	}
}

// TestAllQuotesFrontierForcedBinary pins that WithFrontier(binary) and
// the default auto policy produce identical quotes on quantized costs
// — the solver-level face of the bucket-queue equivalence.
func TestAllQuotesFrontierForcedBinary(t *testing.T) {
	g := allSourcesTestGraph(48, 9, true)
	auto, err := NewSolver().AllQuotes(g, 1, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := NewSolver(WithFrontier(sp.FrontierBinary)).AllQuotes(g, 1, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(auto, bin) {
		t.Fatal("bucket-frontier quotes differ from forced-binary quotes")
	}
}

// TestAllQuotesUnreachableSourcesNil pins the nil-slot contract on a
// disconnected graph: the destination table holds +Inf for the far
// component, and each of its sources gets a nil slot.
func TestAllQuotesUnreachableSourcesNil(t *testing.T) {
	g := graph.NewNodeGraph(7)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5) // 6 isolated; 3-4-5 disconnected from dest 0
	for v := 0; v < 7; v++ {
		g.SetCost(v, 1+float64(v)/2)
	}
	for _, engine := range []Engine{EngineFast, EngineNaive} {
		out := requirePerSourceEqual(t, g, 0, engine)
		for _, s := range []int{3, 4, 5, 6} {
			if out[s] != nil {
				t.Fatalf("engine=%v: unreachable source %d got a quote: %v", engine, s, out[s])
			}
		}
		if out[1] == nil || out[2] == nil {
			t.Fatalf("engine=%v: reachable sources missing quotes", engine)
		}
	}
}

// TestAllQuotesOneDijkstraPerSource: the fast engine's destination
// table is built once per call, so an all-sources pass over an n-node
// graph makes exactly n Dijkstra runs — one table plus one SPT(s) per
// source.
func TestAllQuotesOneDijkstraPerSource(t *testing.T) {
	g := allSourcesTestGraph(40, 5, false)
	g.CSR()
	sv := NewSolver()
	obs.Reset()
	obs.Enable()
	t.Cleanup(func() {
		obs.Disable()
		obs.Reset()
	})
	out, err := sv.AllQuotes(g, 0, EngineFast)
	if err != nil {
		t.Fatal(err)
	}
	for s := 1; s < g.N(); s++ {
		if out[s] == nil {
			t.Fatalf("source %d has no quote on a biconnected graph", s)
		}
	}
	snap := obs.Default.Snapshot()
	if got, want := snap.Counters["sp.dijkstra_runs"], uint64(g.N()); got != want {
		t.Errorf("Dijkstra runs = %d, want %d (one table + one tree per source)", got, want)
	}
	if got, want := snap.Counters["core.quotes_served"], uint64(g.N()-1); got != want {
		t.Errorf("quotes = %d, want %d", got, want)
	}
}
