package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"truthroute/internal/core"
	"truthroute/internal/graph"
	"truthroute/internal/serve"
	"truthroute/internal/sp"
)

// This file is the traced run: spans recorded in memory around the
// benchmark's own calls into each layer's public functions, written
// out as JSON lines when the run ends. Nothing inside the program is
// instrumented, and end-to-end metrics never come from a traced run.

// span is one timed call. Parent is the index of the enclosing span
// (-1 for a root); spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Ops    int    `json:"ops"`
}

// tracer records spans while on; off, begin and end do nothing, which
// is the untraced baseline trace.overhead_frac is measured against.
type tracer struct {
	on     bool
	origin time.Time
	spans  []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, origin: now()} }

func (tr *tracer) begin(name string, parent, req int) int {
	if !tr.on {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Start: int64(now().Sub(tr.origin)), Parent: parent, Req: req, Ops: 1})
	return len(tr.spans) - 1
}

func (tr *tracer) end(id int) { tr.endOps(id, 1) }

// endOps closes a span that covered ops repetitions of its call, for
// calls too short to time one at a time.
func (tr *tracer) endOps(id, ops int) {
	if id < 0 {
		return
	}
	tr.spans[id].End = int64(now().Sub(tr.origin))
	tr.spans[id].Ops = ops
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	n, ops      int
	total, self time.Duration
	durs        []time.Duration
}

// childTime returns, per span, the time its direct children cover.
func (tr *tracer) childTime() []time.Duration {
	child := make([]time.Duration, len(tr.spans))
	for _, s := range tr.spans {
		if s.Parent >= 0 {
			child[s.Parent] += time.Duration(s.End - s.Start)
		}
	}
	return child
}

func (tr *tracer) stats() map[string]*layerStat {
	child := tr.childTime()
	out := map[string]*layerStat{}
	for i, s := range tr.spans {
		st := out[s.Name]
		if st == nil {
			st = &layerStat{}
			out[s.Name] = st
		}
		d := time.Duration(s.End - s.Start)
		st.n++
		st.ops += s.Ops
		st.total += d
		st.self += d - child[i]
		st.durs = append(st.durs, d)
	}
	return out
}

// medianUS is the median duration of the named spans in µs, or 0
// when the run recorded none.
func medianUS(stats map[string]*layerStat, name string) float64 {
	if st := stats[name]; st != nil {
		return us(median(st.durs))
	}
	return 0
}

// perOpNS is the named spans' total duration per covered call, in ns.
func perOpNS(stats map[string]*layerStat, name string) float64 {
	if st := stats[name]; st != nil && st.ops > 0 {
		return float64(st.total) / float64(st.ops)
	}
	return 0
}

// residualFrac is the share of root-span time no child span covers:
// how far the per-stage costs fall short of adding up.
func (tr *tracer) residualFrac() float64 {
	child := tr.childTime()
	var self, total time.Duration
	for i, s := range tr.spans {
		if s.Parent < 0 {
			d := time.Duration(s.End - s.Start)
			total += d
			self += d - child[i]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(self) / float64(total)
}

// finish writes the spans as JSON lines under workdir and prints each
// layer's self time.
func (tr *tracer) finish(rep *report, workdir, name string) error {
	path := filepath.Join(workdir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	stats := tr.stats()
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	rep.printf("# trace: %d spans written to %s", len(tr.spans), path)
	for _, n := range names {
		st := stats[n]
		rep.printf("self %-20s spans=%-6d ops=%-8d self_ms=%.3f self_per_op_us=%.4f",
			n, st.n, st.ops, float64(st.self)/1e6, us(st.self)/float64(st.ops))
	}
	return nil
}

// replayInput is the seeded input a traced replay walks through: the
// topology exactly as the daemon loads it, the declared costs of each
// epoch in publication order, and quotes naming their epoch by index.
type replayInput struct {
	topology []byte
	epochs   [][]float64
	quotes   []replayQuote
}

type replayQuote struct {
	p     pair
	epoch int
}

// replayTotals are the counts a replay observes.
type replayTotals struct {
	bucketEpochs, epochs int
	relays, quotes       int
	respBytes, frames    int
}

// wireOps is how many frames the codec replay encodes and decodes:
// enough that one span covers far more than the clock's resolution.
const wireOps = 50000

// replay re-executes the daemon's work for in, layer by layer, in
// process: topology load and sharding, one cost flip and quantum
// negotiation per epoch, the memo-miss path (LCP tree, Algorithm 1,
// JSON marshal) for each quote, and the binary frame codec.
func replay(tr *tracer, in *replayInput) (replayTotals, error) {
	var tot replayTotals
	root := tr.begin("setup", -1, 0)
	s := tr.begin("graph.load", root, 0)
	g, err := graph.ReadNodeGraph(bytes.NewReader(in.topology))
	tr.end(s)
	if err != nil {
		return tot, err
	}
	// Sharding as serve.New does it. A one-component topology is its
	// own shard (the relabeling is the identity), and cost views are
	// flipped from it so they share its CSR as the daemon's do; the
	// campaign's multi-component instances are priced whole.
	s = tr.begin("graph.shard", root, 0)
	comps := g.Components()
	base := g
	for _, comp := range comps {
		sub := g.InducedSubgraph(comp)
		sub.CSR()
		if len(comps) == 1 {
			base = sub
		}
	}
	if len(comps) > 1 {
		g.CSR()
	}
	tr.end(s)
	tr.end(root)

	views := make([]*graph.NodeGraph, len(in.epochs))
	for e, costs := range in.epochs {
		root := tr.begin("update", -1, e)
		s := tr.begin("graph.flip", root, e)
		views[e] = base.WithCosts(costs)
		tr.end(s)
		s = tr.begin("graph.quantum", root, e)
		_, ok := views[e].CostQuantum()
		tr.end(s)
		tr.end(root)
		tot.epochs++
		if ok {
			tot.bucketEpochs++
		}
	}

	solver := core.NewSolver()
	var q core.Quote
	frames := make([][]byte, 0, len(in.quotes))
	for k, rq := range in.quotes {
		v, src, dst := views[rq.epoch], int(rq.p.src), int(rq.p.dst)
		root := tr.begin("serve.miss", -1, k)
		s := tr.begin("sp.tree", root, k)
		reachable := sp.NodeDijkstra(v, src, nil).Reachable(dst)
		tr.end(s)
		if !reachable {
			return tot, fmt.Errorf("replay: %d unreachable from %d", dst, src)
		}
		s = tr.begin("core.quote", root, k)
		err := solver.QuoteInto(&q, v, src, dst, core.EngineFast)
		tr.end(s)
		if err != nil {
			return tot, err
		}
		s = tr.begin("memo.marshal", root, k)
		body, err := json.Marshal(&q)
		tr.end(s)
		tr.end(root)
		if err != nil {
			return tot, err
		}
		tot.quotes++
		tot.relays += len(q.Path) - 2
		payload := serve.EncodeBinaryQuote(nil, &serve.BinaryQuote{Epoch: uint64(rq.epoch + 1), Quote: body})
		frames = append(frames, serve.AppendFrame(nil, serve.KindQuoteResp, uint32(k), payload))
		tot.respBytes += len(frames[k])
		tot.frames++
	}
	if len(frames) == 0 {
		return tot, fmt.Errorf("replay: no quotes to replay")
	}

	root = tr.begin("wire.batch", -1, 0)
	s = tr.begin("wire.encode", root, 0)
	buf := make([]byte, 0, 64<<10)
	payload := make([]byte, 0, 32)
	for i := 0; i < wireOps; i++ {
		if len(buf) > 60<<10 {
			buf = buf[:0]
		}
		p := in.quotes[i%len(in.quotes)].p
		payload = serve.EncodeBinaryRequest(payload[:0], &serve.BinaryRequest{Src: p.src, Dst: p.dst, Engine: serve.EngineFastByte})
		buf = serve.AppendFrame(buf, serve.KindQuoteReq, uint32(i), payload)
	}
	tr.endOps(s, wireOps)
	s = tr.begin("wire.decode", root, 0)
	for i := 0; i < wireOps; i++ {
		_, _, payload, err := serve.DecodeFrame(frames[i%len(frames)])
		if err == nil {
			_, err = serve.DecodeBinaryQuote(payload)
		}
		if err != nil {
			return tot, err
		}
	}
	tr.endOps(s, wireOps)
	tr.end(root)
	return tot, nil
}

// overheadPairs is how many untraced and traced replays alternate
// for trace.overhead_frac. One pair of sub-second replays read from
// -12% to +6% on the same inputs; the fastest of each side is the
// replay host interference disturbed least.
const overheadPairs = 3

// tracedReplay runs the replay once untraced to warm, then
// overheadPairs times untraced and traced in turn, and returns the
// totals of the last traced replay, whose spans alone stay in tr, with
// the tracing overhead: the fastest traced against the fastest
// untraced replay time. Each timed replay starts from a collected
// heap, so neither side pays for the other's garbage.
func tracedReplay(tr *tracer, in *replayInput) (replayTotals, float64, error) {
	if _, err := replay(newTracer(false), in); err != nil {
		return replayTotals{}, 0, err
	}
	var untraced, traced time.Duration
	var tot replayTotals
	for k := 0; k < overheadPairs; k++ {
		runtime.GC()
		t0 := now()
		if _, err := replay(newTracer(false), in); err != nil {
			return replayTotals{}, 0, err
		}
		u := now().Sub(t0)
		into := newTracer(true)
		if k == overheadPairs-1 {
			into = tr
		}
		runtime.GC()
		t0 = now()
		var err error
		if tot, err = replay(into, in); err != nil {
			return replayTotals{}, 0, err
		}
		t := now().Sub(t0)
		if k == 0 || u < untraced {
			untraced = u
		}
		if k == 0 || t < traced {
			traced = t
		}
	}
	return tot, float64(traced)/float64(untraced) - 1, nil
}

// rttProbe times lock-step round trips at pipeline depth 1 over a
// fresh binary connection, cycling through reqs: each request is
// encoded, written, answered and decoded before the next leaves.
func rttProbe(tr *tracer, addr string, reqs []pair, count int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer func() { _ = conn.Close() }() // the probe outcome is already recorded
	br := bufio.NewReader(conn)
	payload := make([]byte, 0, 32)
	frame := make([]byte, 0, 64)
	for i := 0; i < count; i++ {
		p := reqs[i%len(reqs)]
		root := tr.begin("binary.request", -1, i)
		s := tr.begin("client.encode", root, i)
		payload = serve.EncodeBinaryRequest(payload[:0], &serve.BinaryRequest{Src: p.src, Dst: p.dst, Engine: serve.EngineFastByte})
		frame = serve.AppendFrame(frame[:0], serve.KindQuoteReq, uint32(i), payload)
		tr.end(s)
		s = tr.begin("binary.rtt", root, i)
		if _, err := conn.Write(frame); err != nil {
			return err
		}
		kind, reqid, resp, err := serve.ReadFrame(br)
		tr.end(s)
		if err != nil {
			return err
		}
		s = tr.begin("client.decode", root, i)
		_, err = serve.DecodeBinaryQuote(resp)
		tr.end(s)
		tr.end(root)
		if err != nil || kind != serve.KindQuoteResp || reqid != uint32(i) {
			return fmt.Errorf("rtt probe: request %d answered kind %#02x reqid %d (%v)", i, kind, reqid, err)
		}
	}
	return nil
}
