package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"testing"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// TestServeDifferentialVsSolver is the cross-process-boundary oracle:
// the daemon runs in-process over the same topology family the
// differential oracle soaks (random graphs, n ≤ 128, randomized
// costs) and every served quote must be byte-identical to a direct
// core.Solver answer computed on the cost vector of the epoch the
// response claims. Mid-run batched cost updates flip epochs; a
// response pairing epoch e with a quote priced under any other
// epoch's costs fails the byte comparison, so zero mismatches also
// means zero mixed-epoch responses. Half the requests go to one fixed
// target per topology, so quotes priced against a destination table
// another source's miss built are compared too.
func TestServeDifferentialVsSolver(t *testing.T) {
	const topologies = 200
	sv := core.NewSolver()
	mismatches := 0
	for topo := 0; topo < topologies; topo++ {
		rng := rand.New(rand.NewPCG(0xd1ff, uint64(topo)))
		n := 8 + rng.IntN(121) // 8..128
		var g *graph.NodeGraph
		if topo%4 == 0 {
			// Sparse Erdős–Rényi graphs shard into several components.
			g = graph.ErdosRenyi(n, (1.2+rng.Float64())/float64(n), rng)
		} else {
			g = graph.RandomBiconnected(n, 0.1+0.3*rng.Float64(), rng)
		}
		g.RandomizeCosts(0.5, 8, rng)

		s := New(g, Config{})
		// costsAt[e] is the full global cost vector under epoch e.
		// Every shard starts at epoch 1 with the construction costs;
		// single-writer batches advance all touched shards in
		// lockstep below, so one table keyed by epoch stays exact.
		costsAt := map[uint64][]float64{1: g.Costs()}
		cur := uint64(1)

		hub := rng.IntN(n)
		engine := "fast"
		if topo%3 == 0 {
			engine = "naive"
		}
		for trial := 0; trial < 10; trial++ {
			if trial == 4 || trial == 7 {
				// Batched update across every shard: bump each node
				// with probability 1/3. Applying to all shards keeps
				// the epoch->costs table one-dimensional.
				next := append([]float64(nil), costsAt[cur]...)
				var batch []CostUpdate
				for v := 0; v < n; v++ {
					if rng.IntN(3) == 0 {
						c := 0.5 + 7.5*rng.Float64()
						next[v] = c
						batch = append(batch, CostUpdate{Node: v, Cost: c})
					}
				}
				if len(batch) == 0 {
					batch = []CostUpdate{{Node: rng.IntN(n), Cost: 1 + rng.Float64()}}
					next[batch[0].Node] = batch[0].Cost
				}
				// Ensure every shard is touched so all epochs advance
				// together (the per-shard differential below relies
				// on it).
				touched := make(map[int32]bool)
				for _, u := range batch {
					touched[s.shardOf[u.Node]] = true
				}
				for v := 0; v < n; v++ {
					if sid := s.shardOf[v]; !touched[sid] {
						touched[sid] = true
						batch = append(batch, CostUpdate{Node: v, Cost: costsAt[cur][v]})
					}
				}
				blob, err := json.Marshal(UpdateRequest{Updates: batch})
				if err != nil {
					t.Fatal(err)
				}
				rec := doReq(t, s, "POST", "/update", string(blob))
				if rec.Code != http.StatusOK {
					t.Fatalf("topo %d: update failed: %d %s", topo, rec.Code, rec.Body.String())
				}
				var ur UpdateResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &ur); err != nil {
					t.Fatal(err)
				}
				for _, se := range ur.Shards {
					if se.Epoch != cur+1 {
						t.Fatalf("topo %d: shard %d published epoch %d, want %d", topo, se.Shard, se.Epoch, cur+1)
					}
				}
				cur++
				costsAt[cur] = next
			}

			src := rng.IntN(n)
			dst := rng.IntN(n - 1)
			if dst >= src {
				dst++
			}
			if trial%2 == 0 && src != hub {
				// Half of each epoch's requests aim at one fixed
				// target, so fast-engine misses share the epoch's
				// destination table across sources (the v0 traffic
				// shape) while the rest build tables cold.
				dst = hub
			}
			rec := doReq(t, s, "GET", fmt.Sprintf("/quote?src=%d&dst=%d&engine=%s", src, dst, engine), "")
			switch rec.Code {
			case http.StatusNotFound:
				// Cross-component or unreachable: the direct solver
				// must agree there is no path.
				gq := g.WithCosts(costsAt[cur])
				if _, err := sv.Quote(gq, src, dst, core.EngineNaive); err == nil {
					t.Errorf("topo %d: served 404 for %d->%d but solver finds a path", topo, src, dst)
					mismatches++
				}
			case http.StatusOK:
				qr := decodeQuote(t, rec)
				costs, ok := costsAt[qr.Epoch]
				if !ok {
					t.Fatalf("topo %d: response claims unknown epoch %d", topo, qr.Epoch)
				}
				eng := core.EngineFast
				if engine == "naive" {
					eng = core.EngineNaive
				}
				ref, err := sv.Quote(g.WithCosts(costs), src, dst, eng)
				if err != nil {
					t.Fatalf("topo %d: solver failed for served pair %d->%d: %v", topo, src, dst, err)
				}
				want, err := json.Marshal(ref)
				if err != nil {
					t.Fatal(err)
				}
				if string(qr.Quote) != string(want) {
					mismatches++
					t.Errorf("topo %d: quote %d->%d epoch %d differs:\n  served %s\n  direct %s",
						topo, src, dst, qr.Epoch, qr.Quote, want)
				}
			default:
				t.Fatalf("topo %d: quote %d->%d: status %d body %s", topo, src, dst, rec.Code, rec.Body.String())
			}
		}
		s.Drain()
	}
	if mismatches != 0 {
		t.Fatalf("%d quote mismatches across %d topologies", mismatches, topologies)
	}
}
