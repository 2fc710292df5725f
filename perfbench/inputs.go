package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"truthroute/internal/graph"
	"truthroute/internal/serve"
	"truthroute/internal/wireless"
)

// Instance geometry shared by every workload: netgen's defaults, the
// paper's first campaign (2000 m × 2000 m region, common 300 m range).
const (
	regionSide = 2000.0
	radioRange = 300.0
	costLo     = 1.0
	costHi     = 10.0
)

// Serving workload shape. servingNodes matches the scale the quote
// path was profiled at; hotPairs is small enough that the memo
// warm-up fills all of it before timing starts.
const (
	servingNodes = 1000
	hotPairs     = 256
	// costGrid is the fixed step of drift-binary's declared costs:
	// quarter units keep every cost on a power-of-two grid, so
	// graph.CostQuantum negotiates and the bucket frontier engages.
	costGrid = 0.25
	// updateBatch is the number of nodes one /update batch re-prices.
	updateBatch = 16
)

// Seed streams: every generated input draws from its own PCG stream
// of the workload seed, so adding one input never shifts another.
const (
	streamTopology = iota + 1
	streamHotPairs
	streamRequests
	streamUpdates
	streamCampaign
	streamSamples
	streamRedraw
)

func newRand(seed uint64, stream, sub uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream<<32|sub))
}

// accessPoint is where every generated instance puts v0 = node 0: the
// centre of the region. Quote cost grows with the hop distance to v0,
// and a v0 the seed placed in a corner or in the middle moved CPU per
// quote by more than the run-to-run noise.
var accessPoint = wireless.Point{X: regionSide / 2, Y: regionSide / 2}

// servingTopology draws the seeded single-component UDG the daemon
// serves, with v0 at accessPoint. grid selects drift-binary's
// quarter-unit costs; otherwise costs are U[1,10) floats as netgen
// emits them. A draw that leaves the graph disconnected is redrawn
// from the next sub-stream, so the one-shard shape (and with it the
// identity between served and directly computed node ids) holds for
// every seed.
func servingTopology(seed uint64, grid bool) *graph.NodeGraph {
	for sub := uint64(0); ; sub++ {
		rng := newRand(seed, streamTopology, sub)
		dep := wireless.PlaceUniform(servingNodes, regionSide, radioRange, rng)
		dep.Pos[0] = accessPoint
		g := dep.NodeCostUDG(costLo, costHi, rng)
		if len(g.Components()) != 1 {
			continue
		}
		if grid {
			for v := 0; v < g.N(); v++ {
				g.SetCost(v, gridCost(rng))
			}
		}
		return g
	}
}

// gridCost draws a strictly positive cost on the quarter-unit grid in
// [costLo, costHi).
func gridCost(rng *rand.Rand) float64 {
	steps := int((costHi - costLo) / costGrid)
	return costLo + costGrid*float64(rng.IntN(steps))
}

// pair is one quote request.
type pair struct{ src, dst uint32 }

// hotSet draws hot-binary's fixed set of distinct (src, dst) pairs.
func hotSet(seed uint64, n int) []pair {
	rng := newRand(seed, streamHotPairs, 0)
	seen := make(map[pair]bool, hotPairs)
	out := make([]pair, 0, hotPairs)
	for len(out) < hotPairs {
		p := pair{uint32(rng.IntN(n)), uint32(rng.IntN(n))}
		if p.src == p.dst || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	return out
}

// hotStream draws count requests uniformly from the hot set; phase
// separates the warm-up stream from the timed one.
func hotStream(seed uint64, phase uint64, hot []pair, count int) []pair {
	rng := newRand(seed, streamRequests, phase)
	out := make([]pair, count)
	for i := range out {
		out[i] = hot[rng.IntN(len(hot))]
	}
	return out
}

// accessStream draws count requests from uniform sources to the
// access point v0 = node 0, the paper's unicast-to-AP traffic.
func accessStream(seed uint64, phase uint64, n, count int) []pair {
	rng := newRand(seed, streamRequests, phase)
	out := make([]pair, count)
	for i := range out {
		out[i] = pair{uint32(1 + rng.IntN(n-1)), 0}
	}
	return out
}

// updateStream draws count cost-update batches. grid keeps the new
// costs on the quarter-unit grid; otherwise they are U[1,10) floats.
func updateStream(seed uint64, phase uint64, n, count int, grid bool) [][]serve.CostUpdate {
	rng := newRand(seed, streamUpdates, phase)
	out := make([][]serve.CostUpdate, count)
	for b := range out {
		batch := make([]serve.CostUpdate, updateBatch)
		for k := range batch {
			c := costLo + (costHi-costLo)*rng.Float64()
			if grid {
				c = gridCost(rng)
			}
			batch[k] = serve.CostUpdate{Node: rng.IntN(n), Cost: c}
		}
		out[b] = batch
	}
	return out
}

// applyBatch returns a copy of costs with batch applied, in order —
// the same fold the shard writer performs, so the result is the
// declared cost vector of the epoch the batch publishes.
func applyBatch(costs []float64, batch []serve.CostUpdate) []float64 {
	out := append([]float64(nil), costs...)
	for _, u := range batch {
		out[u.Node] = u.Cost
	}
	return out
}

// writeTopology writes g as NodeGraph JSON under dir and returns the
// path and the bytes written.
func writeTopology(dir, name string, g *graph.NodeGraph) (string, []byte, error) {
	blob, err := json.Marshal(g)
	if err != nil {
		return "", nil, fmt.Errorf("encoding topology: %w", err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return "", nil, fmt.Errorf("writing topology: %w", err)
	}
	return path, blob, nil
}
