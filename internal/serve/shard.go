package serve

import (
	"encoding/json"
	"sync"
	"sync/atomic"

	"truthroute/internal/core"
	"truthroute/internal/graph"
)

// CostUpdate is one declared-cost change inside an update batch.
// Node is a global node id; Cost is the node's new declared relay
// cost (finite, non-negative).
type CostUpdate struct {
	Node int     `json:"node"`
	Cost float64 `json:"cost"`
}

// batchReq carries one shard-local update batch to the shard's writer
// goroutine; reply receives the epoch the batch was published as.
type batchReq struct {
	updates []CostUpdate // node ids already remapped to shard-local
	reply   chan uint64
}

// shard serves one connected component of the topology. All reads go
// through an immutable epoch snapshot behind an atomic pointer —
// readers never lock and never observe a half-applied batch — and all
// writes funnel through a single writer goroutine, so epochs are
// strictly monotone and batches are serialized without a mutex on the
// read path. This is the same RCU shape as graph.CSR's atomic-pointer
// cache, lifted from "topology view" to "priced topology + caches".
type shard struct {
	id      int
	globals []int // local id -> global id; strictly increasing
	solver  *core.Solver
	snap    atomic.Pointer[snapshot]
	batches chan batchReq
	done    chan struct{}
}

// snapshot is one immutable epoch: a cost view sharing the shard's
// adjacency and built CSR, plus caches that live exactly as long as
// the epoch is current. Cost drift publishes a new snapshot, so every
// cache is invalidated wholesale by the epoch flip itself — there is
// no per-entry invalidation protocol to get wrong.
type snapshot struct {
	epoch uint64
	g     *graph.NodeGraph
	src   []sourceCache
	// dest[t] is the epoch's distance table toward local target t,
	// built on the first fast-engine miss for t. It is the only
	// source-independent half of Algorithm 1's input, so in the
	// paper's every-source-to-v0 traffic one table serves every
	// source's miss in the epoch.
	dest []atomic.Pointer[core.DestTable]
}

// sourceCache holds one source's memos for the lifetime of a
// snapshot: the fully marshalled quotes already served, and the
// pre-serialized binary KindQuoteResp payloads built from those same
// quote bytes. Both die with the snapshot, so the binary plane
// inherits the epoch-flip invalidation story wholesale.
type sourceCache struct {
	quotes sync.Map // int64 key engine<<32|target -> []byte quote JSON
	frames sync.Map // int64 key engine<<32|target -> []byte binary quote payload
}

func newSnapshot(epoch uint64, g *graph.NodeGraph) *snapshot {
	return &snapshot{
		epoch: epoch,
		g:     g,
		src:   make([]sourceCache, g.N()),
		dest:  make([]atomic.Pointer[core.DestTable], g.N()),
	}
}

// newShard carves component comp out of g, warms the shard's solver
// pool, publishes epoch 1, and starts the single writer.
//
//lint:writer newShard publishes epoch 1 before any reader can hold the shard
func newShard(id int, g *graph.NodeGraph, comp []int, warm int) *shard {
	sub := g.InducedSubgraph(comp)
	sub.CSR() // built once here; every epoch's cost view shares it
	sh := &shard{
		id:      id,
		globals: comp,
		solver:  core.NewSolver(),
		batches: make(chan batchReq),
		done:    make(chan struct{}),
	}
	sh.solver.Warm(sub.N(), warm)
	sh.snap.Store(newSnapshot(1, sub))
	go sh.writer()
	return sh
}

// writer is the shard's only mutator. Each batch is applied to a copy
// of the current cost vector and published as one atomic pointer
// store: a reader that loaded the old snapshot keeps computing on it
// undisturbed, a reader that loads after the store sees every update
// in the batch. The graph view shares adjacency and CSR with its
// predecessor — an epoch flip re-prices, it never re-extracts
// topology.
//
//lint:writer the single writer goroutine is the only epoch publisher after startup
func (sh *shard) writer() {
	defer close(sh.done)
	for req := range sh.batches {
		cur := sh.snap.Load()
		costs := cur.g.Costs()
		for _, u := range req.updates {
			costs[u.Node] = u.Cost
		}
		next := newSnapshot(cur.epoch+1, cur.g.WithCosts(costs))
		sh.snap.Store(next)
		obsBatches.Inc()
		obsUpdatesApplied.Add(uint64(len(req.updates)))
		obsEpochMax.SetMax(int64(next.epoch))
		req.reply <- next.epoch
	}
}

// apply submits one validated shard-local batch and blocks until its
// epoch is published.
func (sh *shard) apply(updates []CostUpdate) uint64 {
	reply := make(chan uint64, 1)
	sh.batches <- batchReq{updates: updates, reply: reply}
	return <-reply
}

// stop shuts the writer down after all in-flight batches have been
// published. The server drains admitted requests first, so no apply
// can race the close.
func (sh *shard) stop() {
	close(sh.batches)
	<-sh.done
}

// destTable returns the snapshot's distance table toward local target
// lt, building it on first use through the shard solver's pooled
// workspace. Concurrent builders race benignly: both compute the same
// deterministic table and the losing CompareAndSwap discards its
// copy, mirroring graph.CSR's build race.
//
//lint:writer racing builders compute the same deterministic table; the CAS loser discards its copy unpublished
func (sh *shard) destTable(snap *snapshot, lt int) *core.DestTable {
	p := &snap.dest[lt]
	if tab := p.Load(); tab != nil {
		return tab
	}
	obsTablesBuilt.Inc()
	tab := sh.solver.DestTable(snap.g, lt)
	if p.CompareAndSwap(nil, tab) {
		return tab
	}
	return p.Load()
}

// quote serves the marshalled global-id quote for (ls, lt) on snap,
// memoizing per (engine, source, target) for the snapshot's lifetime.
// Repeated requests within an epoch are served the identical bytes:
// the hit path is a sync.Map probe and performs no heap allocation
// (the int64 key boxes on the stack because Load does not retain it).
//
//lint:noalloc the epoch-cached read path: a warm hit must serve bytes without touching the heap
func (sh *shard) quote(snap *snapshot, ls, lt int, engine core.Engine) ([]byte, error) {
	sc := &snap.src[ls]
	key := int64(engine)<<32 | int64(lt)
	if v, ok := sc.quotes.Load(key); ok {
		obsCacheHits.Inc()
		return v.([]byte), nil
	}
	return sh.quoteMiss(snap, sc, ls, lt, engine, key)
}

// quoteMiss fills the per-snapshot cache on the first request for a
// key. Outlined from quote with //go:noinline: LoadOrStore retains its
// boxed key and the marshalled body is a fresh allocation by design —
// once per (engine, source, target) per epoch — and folding either
// back into quote would put heap traffic on the annotated hit path.
//
//go:noinline
func (sh *shard) quoteMiss(snap *snapshot, sc *sourceCache, ls, lt int, engine core.Engine, key int64) ([]byte, error) {
	obsCacheMisses.Inc()
	body, err := sh.computeQuote(snap, ls, lt, engine)
	if err != nil {
		return nil, err
	}
	if v, loaded := sc.quotes.LoadOrStore(key, body); loaded {
		// A concurrent filler won the store; serve its copy so every
		// response for this key aliases one allocation.
		return v.([]byte), nil
	}
	return body, nil
}

// framePayload serves the pre-serialized KindQuoteResp payload —
// shard id, epoch, then the exact quote JSON bytes the HTTP path
// serves — for (ls, lt) on snap, memoized per (engine, source,
// target) for the snapshot's lifetime. This is the binary plane's
// whole steady state: the hit path is one sync.Map probe, and the
// caller's only remaining work is a frame-header fill and one copy
// of these bytes into the connection's write buffer. No marshalling
// of any kind happens per request.
//
//lint:noalloc the epoch-cached binary read path: a warm hit must serve payload bytes without touching the heap
func (sh *shard) framePayload(snap *snapshot, ls, lt int, engine core.Engine) ([]byte, error) {
	sc := &snap.src[ls]
	key := int64(engine)<<32 | int64(lt)
	if v, ok := sc.frames.Load(key); ok {
		obsBinCacheHits.Inc()
		return v.([]byte), nil
	}
	return sh.framePayloadMiss(snap, sc, ls, lt, engine, key)
}

// framePayloadMiss assembles the binary payload on the first binary
// request for a key, reusing (or filling) the JSON quote memo so the
// quote bytes inside the binary payload alias the HTTP path's
// allocation. Outlined from framePayload like quoteMiss: the
// once-per-key-per-epoch assembly allocates by design and must stay
// off the annotated hit path.
//
//go:noinline
func (sh *shard) framePayloadMiss(snap *snapshot, sc *sourceCache, ls, lt int, engine core.Engine, key int64) ([]byte, error) {
	obsBinCacheMisses.Inc()
	body, err := sh.quote(snap, ls, lt, engine)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, 0, binaryQuoteHeadLen+len(body))
	payload = EncodeBinaryQuote(payload, &BinaryQuote{
		Shard: uint32(sh.id),
		Epoch: snap.epoch,
		Quote: body,
	})
	if v, loaded := sc.frames.LoadOrStore(key, payload); loaded {
		// A concurrent filler won the store; serve its copy so every
		// response for this key aliases one allocation.
		return v.([]byte), nil
	}
	return payload, nil
}

// computeQuote runs the mechanism on the snapshot and marshals the
// result with local ids remapped to global ones. The fast engine
// prices against the epoch's shared table toward lt, so a miss runs
// one Dijkstra (the source's tree) once that table exists. The
// remapping is monotone (globals is increasing), so the served path
// and payments are bit-identical to a direct core.Solver run on the
// full topology — the property the differential harness asserts.
func (sh *shard) computeQuote(snap *snapshot, ls, lt int, engine core.Engine) ([]byte, error) {
	var tab *core.DestTable
	if engine == core.EngineFast {
		tab = sh.destTable(snap, lt)
	}
	var local core.Quote
	if err := sh.solver.QuoteIntoWith(&local, snap.g, ls, lt, tab, engine); err != nil {
		return nil, err
	}
	global := core.Quote{
		Source:   sh.globals[local.Source],
		Target:   sh.globals[local.Target],
		Cost:     local.Cost,
		Path:     make([]int, len(local.Path)),
		Payments: make(map[int]float64, len(local.Payments)),
	}
	for i, v := range local.Path {
		global.Path[i] = sh.globals[v]
	}
	for v, p := range local.Payments {
		global.Payments[sh.globals[v]] = p
	}
	return json.Marshal(&global)
}
