package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"truthroute/internal/serve"
)

// This file is the open-loop load generator: one binary connection
// whose requests leave on a fixed schedule whatever the daemon does,
// plus, for drift, an /update stream on its own schedule. Every
// latency is measured from the request's due time, so a stall shows
// up in every request it delays.

// sendTick is the coarsest spacing of the sender's writes. At rates
// above 1/sendTick the sender wakes on absolute tick boundaries and
// writes every request that has fallen due as one batch, so the
// batch size (and with it the daemon's read and write counts) is set
// by rate × sendTick, not by the scheduler.
const sendTick = 100 * time.Microsecond

// windowLen splits a timed phase into windows by due time. Latency
// percentiles and CPU per quote are computed per window and reported
// as their median across windows, so host interference (CPU steal, a
// noisy neighbour) that hits a minority of windows does not move the
// result.
const windowLen = 2 * time.Second

// clientProcs is the load generator's GOMAXPROCS: one P for the
// sender, which sleeps on its own OS thread, and one for the receiver.
const clientProcs = 2

// Lateness validity rule: a phase is invalid when more than
// maxLateShare of its requests left more than lateLimit after their
// due time. Invalid phases are counted and reported, never dropped.
const (
	lateLimit    = time.Millisecond
	maxLateShare = 0.05
)

// latPending marks a request with no response yet; latFailed one that
// was refused or failed, which misses every latency limit.
const (
	latPending = int64(-1)
	latFailed  = int64(math.MaxInt64)
)

// epochState is what the benchmark knows about the daemon's epochs:
// the declared costs of every epoch it caused (index = epoch; epoch 1
// is the topology as loaded) and the newest epoch acknowledged by an
// /update response.
type epochState struct {
	costs [][]float64
	acked atomic.Uint64
}

func newEpochState(initial []float64) *epochState {
	st := &epochState{costs: [][]float64{nil, initial}}
	st.acked.Store(1)
	return st
}

// phase is one open-loop run: its inputs, and per-request outcomes.
type phase struct {
	reqs    []pair
	rate    float64
	updates [][]serve.CostUpdate
	updRate float64
	// checkEvery selects the responses copied for the byte check.
	checkEvery int

	start time.Time

	lat   []int64  // ns from due time to response
	late  []int64  // ns from due time to send
	ackAt []uint64 // newest acknowledged epoch when the request left
	epoch []uint64 // epoch that answered the request
	// samples are the copied quote bytes of every checkEvery-th
	// response, concatenated; sampleOff[k] is where sample k starts.
	samples   []byte
	sampleOff []int
	sampleIdx []int

	refused, protoErrs int
	sendErr, recvErr   error

	updRTT    []time.Duration
	updFailed int

	// cpuPID, when set, is sampled for on-CPU time at every window
	// boundary into cpuAt, beside the pinned CPU's stolen and total
	// ticks.
	cpuPID          int
	cpuAt           []time.Duration
	stealAt, tickAt []int64
	cpuErr          error
}

// windows is the number of whole windows the phase's schedule spans;
// a phase shorter than one window is one window.
func (ph *phase) windows() int {
	return max(1, int(float64(len(ph.reqs))/ph.rate/windowLen.Seconds()))
}

func (ph *phase) dueAt(i int) time.Time {
	return ph.start.Add(time.Duration(float64(i) * float64(time.Second) / ph.rate))
}

// runPhase drives one phase against the daemon's binary listener
// (and its HTTP listener for updates) and returns when every response
// has arrived or the read deadline passed.
func runPhase(d *daemon, st *epochState, ph *phase) error {
	n := len(ph.reqs)
	ph.lat = make([]int64, n)
	for i := range ph.lat {
		ph.lat[i] = latPending
	}
	ph.late = make([]int64, n)
	ph.ackAt = make([]uint64, n)
	ph.epoch = make([]uint64, n)
	conn, err := net.Dial("tcp", d.binAddr)
	if err != nil {
		return fmt.Errorf("dialing binary listener: %w", err)
	}
	defer func() { _ = conn.Close() }() // the phase outcome is already recorded

	ph.start = now().Add(20 * time.Millisecond)
	last := ph.dueAt(n)
	if err := conn.SetReadDeadline(last.Add(5 * time.Second)); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ph.send(conn, st) }()
	go func() { defer wg.Done(); ph.receive(conn) }()
	if len(ph.updates) > 0 {
		wg.Add(1)
		go func() { defer wg.Done(); ph.update(d, st) }()
	}
	if ph.cpuPID != 0 {
		wg.Add(1)
		go func() { defer wg.Done(); ph.sampleCPU() }()
	}
	wg.Wait()
	if ph.sendErr != nil {
		return fmt.Errorf("sending: %w", ph.sendErr)
	}
	if ph.cpuErr != nil {
		return fmt.Errorf("sampling daemon CPU: %w", ph.cpuErr)
	}
	return nil
}

// sampleCPU reads the daemon's on-CPU time at each window boundary.
func (ph *phase) sampleCPU() {
	for w := 0; w <= ph.windows(); w++ {
		if d := ph.start.Add(time.Duration(w) * windowLen).Sub(now()); d > 0 {
			time.Sleep(d)
		}
		cpu, err := readCPU(ph.cpuPID)
		if err != nil {
			ph.cpuErr = err
			return
		}
		steal, ticks := hostTicks()
		ph.cpuAt = append(ph.cpuAt, cpu)
		ph.stealAt = append(ph.stealAt, steal)
		ph.tickAt = append(ph.tickAt, ticks)
	}
}

// minValidWindows is the fewest windows the medians are taken over.
const minValidWindows = 3

// maxStealShare marks a window invalid: one during which the
// hypervisor stole more than this share of the pinned CPU's time
// measures the host, not the program. Quiet runs on the 2-vCPU host
// the benchmark was built on saw well under 1%.
const maxStealShare = 0.02

// stealShare is the share of the pinned CPU's time the hypervisor stole
// between two hostTicks readings.
func stealShare(steal0, ticks0, steal1, ticks1 int64) float64 {
	if ticks1 <= ticks0 {
		return 0
	}
	return float64(steal1-steal0) / float64(ticks1-ticks0)
}

// windowed holds one figure per window, the pinned CPU's steal share during
// it, and whether it was valid: host interference did not contaminate
// it (see the callers).
type windowed struct {
	p50, p95, cpuPerQ []float64 // µs
	steal             []float64
	valid             []bool
	samples, beyond95 int // per window, the smallest seen
}

// report prints the per-window figures and reports their medians over
// the valid windows as the end-to-end quote_cpu_us, p50_us and p95_us.
// Invalid windows are counted and printed, never dropped silently.
// When fewer than minValidWindows are valid — the host was noisy the
// whole run — the medians use the minValidWindows windows with the
// least steal, the least disturbed ones.
func (w windowed) report(rep *report, what string) {
	keep := append([]bool(nil), w.valid...)
	nValid := 0
	for _, v := range w.valid {
		if v {
			nValid++
		}
	}
	if nValid < minValidWindows {
		order := make([]int, len(w.steal))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool { return w.steal[order[a]] < w.steal[order[b]] })
		for rank, i := range order {
			keep[i] = rank < minValidWindows
		}
	}
	rep.printf("%d %s, at least %d samples and %d above p95 each; %d invalid; medians across the kept windows follow",
		len(w.p50), what, w.samples, w.beyond95, len(w.valid)-nValid)
	med := func(xs []float64) float64 {
		var kept []float64
		for i, x := range xs {
			if keep[i] {
				kept = append(kept, x)
			}
		}
		return medianF(kept)
	}
	for _, row := range []struct {
		name string
		xs   []float64
	}{{"p50_us", w.p50}, {"p95_us", w.p95}, {"quote_cpu_us", w.cpuPerQ}, {"steal_pct", w.steal}} {
		line := "window " + row.name
		for i, x := range row.xs {
			if row.name == "steal_pct" {
				x *= 100
			}
			line += " " + strconv.FormatFloat(x, 'f', 1, 64)
			if !w.valid[i] {
				line += "(invalid)"
			}
			if keep[i] {
				line += "*"
			}
		}
		rep.printf("%s", line)
	}
	rep.endToEnd("quote_cpu_us", med(w.cpuPerQ), unitUS)
	rep.endToEnd("p50_us", med(w.p50), unitUS)
	rep.endToEnd("p95_us", med(w.p95), unitUS)
}

// windowStats computes latency percentiles (from due time, failed
// requests counted as missing every limit) and daemon CPU per
// answered quote for each window of the phase. A window is invalid
// when the generator fell behind in it (more than maxLateShare of its
// requests left more than lateLimit after their due time) or the
// hypervisor stole more than maxStealShare of the pinned CPU's time during
// it: its latencies then measure the host's scheduling, not the
// daemon.
func (ph *phase) windowStats(phaseSecs float64) windowed {
	w := windowed{samples: len(ph.lat), beyond95: len(ph.lat)}
	per := int(ph.rate * windowLen.Seconds())
	for k := 0; k < ph.windows(); k++ {
		lat := append([]int64(nil), ph.lat[k*per:min((k+1)*per, len(ph.lat))]...)
		answered, late := 0, 0
		for j, l := range lat {
			if l != latFailed {
				answered++
			}
			if ph.late[k*per+j] > int64(lateLimit) {
				late++
			}
		}
		steal := 0.0
		if len(ph.tickAt) > k+1 {
			steal = stealShare(ph.stealAt[k], ph.tickAt[k], ph.stealAt[k+1], ph.tickAt[k+1])
		}
		w.steal = append(w.steal, steal)
		w.valid = append(w.valid, steal <= maxStealShare && float64(late) <= maxLateShare*float64(len(lat)))
		p50, _ := percentile(lat, 50)
		p95, beyond := percentile(lat, 95)
		w.p50 = append(w.p50, clampUS(p50, phaseSecs))
		w.p95 = append(w.p95, clampUS(p95, phaseSecs))
		w.samples = min(w.samples, len(lat))
		w.beyond95 = min(w.beyond95, beyond)
		if len(ph.cpuAt) > k+1 && answered > 0 {
			w.cpuPerQ = append(w.cpuPerQ, us(ph.cpuAt[k+1]-ph.cpuAt[k])/float64(answered))
		}
	}
	return w
}

// send writes every request at or after its due time. It holds its
// OS thread and sleeps with nanosleep: the Go timer wheel rounds
// sub-millisecond sleeps of an idle process up to about a
// millisecond, which would make the generator, not the daemon, set
// the batch size.
func (ph *phase) send(conn net.Conn, st *epochState) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	n := len(ph.reqs)
	interval := float64(time.Second) / ph.rate
	buf := make([]byte, 0, 64<<10)
	payload := make([]byte, 0, 32)
	for i := 0; i < n; {
		t := now()
		el := t.Sub(ph.start)
		due := 0
		if el >= 0 {
			due = min(int(float64(el)/interval)+1, n)
		}
		if due > i {
			ack := st.acked.Load()
			buf = buf[:0]
			for ; i < due; i++ {
				ph.late[i] = int64(t.Sub(ph.dueAt(i)))
				ph.ackAt[i] = ack
				p := ph.reqs[i]
				payload = serve.EncodeBinaryRequest(payload[:0], &serve.BinaryRequest{
					Src: p.src, Dst: p.dst, Engine: serve.EngineFastByte,
				})
				buf = serve.AppendFrame(buf, serve.KindQuoteReq, uint32(i), payload)
			}
			if _, err := conn.Write(buf); err != nil {
				ph.sendErr = err
				return
			}
		}
		if i >= n {
			return
		}
		next := ph.dueAt(i)
		if el >= 0 {
			if tick := ph.start.Add((el/sendTick + 1) * sendTick); tick.After(next) {
				next = tick
			}
		}
		sleepUntil(next)
	}
}

// sleepUntil blocks the calling OS thread until t. An interrupted
// sleep returns early; the caller's loop re-reads the clock.
func sleepUntil(t time.Time) {
	d := t.Sub(now())
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the sleep
}

// receive reads response frames until every request is answered. One
// clock read per socket read timestamps every frame in it.
func (ph *phase) receive(conn net.Conn) {
	n := len(ph.reqs)
	buf := make([]byte, 256<<10)
	filled, got := 0, 0
	for got < n {
		m, err := conn.Read(buf[filled:])
		t := now()
		filled += m
		off := 0
		for filled-off >= serve.FrameHeaderLen {
			end := off + serve.FrameHeaderLen + int(binary.BigEndian.Uint32(buf[off+8:off+12]))
			if end > filled {
				if end-off > len(buf) {
					grown := make([]byte, 2*(end-off))
					copy(grown, buf[off:filled])
					buf, filled, off = grown, filled-off, 0
				}
				break
			}
			ph.handle(buf[off:end], t)
			got++
			off = end
		}
		filled = copy(buf, buf[off:filled])
		if err != nil {
			ph.recvErr = err
			return
		}
	}
}

func (ph *phase) handle(frame []byte, t time.Time) {
	kind, reqid, payload, err := serve.DecodeFrame(frame)
	i := int(reqid)
	if err != nil || i >= len(ph.reqs) || ph.lat[i] != latPending {
		ph.protoErrs++
		return
	}
	if kind != serve.KindQuoteResp {
		ph.refused++
		ph.lat[i] = latFailed
		return
	}
	q, err := serve.DecodeBinaryQuote(payload)
	if err != nil {
		ph.protoErrs++
		ph.lat[i] = latFailed
		return
	}
	ph.lat[i] = int64(t.Sub(ph.dueAt(i)))
	ph.epoch[i] = q.Epoch
	if i%ph.checkEvery == 0 {
		ph.sampleIdx = append(ph.sampleIdx, i)
		ph.sampleOff = append(ph.sampleOff, len(ph.samples))
		ph.samples = append(ph.samples, q.Quote...)
	}
}

// update posts the phase's cost batches on their own fixed schedule
// and records each round trip: the daemon answers /update only after
// the batch's epoch is published.
func (ph *phase) update(d *daemon, st *epochState) {
	interval := time.Duration(float64(time.Second) / ph.updRate)
	// Offset by half a quote interval: at 120 quotes/s and 4 updates/s
	// an unshifted update would fall due exactly with a quote, and
	// which of the two the daemon served first would decide the tail.
	offset := interval/2 + time.Duration(float64(time.Second)/ph.rate/2)
	for j, batch := range ph.updates {
		due := ph.start.Add(offset + time.Duration(j)*interval)
		if w := due.Sub(now()); w > 0 {
			time.Sleep(w)
		}
		rtt, err := postUpdate(d, st, batch)
		if err != nil {
			ph.updFailed++
			continue
		}
		ph.updRTT = append(ph.updRTT, rtt)
	}
}

// postUpdate sends one /update batch and, once the daemon
// acknowledges the epoch it published, records that epoch's costs.
// The benchmark is the only writer, so the acknowledged epoch must be
// exactly one past the previous one.
func postUpdate(d *daemon, st *epochState, batch []serve.CostUpdate) (time.Duration, error) {
	body, err := json.Marshal(serve.UpdateRequest{Updates: batch})
	if err != nil {
		return 0, err
	}
	t0 := now()
	resp, err := d.http.Post("http://"+d.httpAddr+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var ur serve.UpdateResponse
	err = json.NewDecoder(resp.Body).Decode(&ur)
	rtt := now().Sub(t0)
	_ = resp.Body.Close() // fully read; nothing left to report
	if err != nil {
		return 0, err
	}
	want := uint64(len(st.costs))
	if resp.StatusCode != 200 || len(ur.Shards) != 1 || ur.Shards[0].Epoch != want {
		return 0, fmt.Errorf("update acknowledged %+v with status %d, want epoch %d", ur.Shards, resp.StatusCode, want)
	}
	st.costs = append(st.costs, applyBatch(st.costs[want-1], batch))
	st.acked.Store(want)
	return rtt, nil
}

// outcome summarises a finished phase.
type outcome struct {
	sent, answered int
	missing, stale int
	lateShare      float64 // share of requests sent later than lateLimit
}

// quoteFailures counts the phase's quotes that did not succeed:
// refusals, protocol errors, missing responses and answers from an
// epoch older than one acknowledged before their send.
func (ph *phase) quoteFailures(o outcome) int {
	return ph.refused + ph.protoErrs + o.missing + o.stale
}

// outcome tallies the phase; it marks requests still unanswered as
// failed, so they miss every latency limit.
func (ph *phase) outcome() outcome {
	var o outcome
	lateCount := 0
	for i, l := range ph.lat {
		o.sent++
		switch {
		case l == latPending:
			o.missing++
			ph.lat[i] = latFailed
		case l != latFailed:
			o.answered++
			if ph.epoch[i] < ph.ackAt[i] {
				o.stale++
			}
		}
		if ph.late[i] > int64(lateLimit) {
			lateCount++
		}
	}
	if o.sent > 0 {
		o.lateShare = float64(lateCount) / float64(o.sent)
	}
	return o
}
