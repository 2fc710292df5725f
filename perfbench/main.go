// Command perfbench is the repository benchmark. It measures the
// quote path end to end over a real socket — the truthrouted daemon,
// spawned as its own process, driven over TCP loopback at a fixed
// offered rate — and the offline §III.G overpayment campaign
// in-process, checks the outputs it measures, and prints every metric
// by name with its unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh, which builds the daemon and this program
// from source first:
//
//	bash perfbench/run.sh --workload drift-binary --seed 7 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same
// workload for the per-layer metrics: the daemon's own counters and
// /proc, read from outside at the edges of the timed phase, and a
// traced in-process replay of the same seeded inputs whose spans wrap
// the calls into each layer's public functions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the benchmark's command-line inputs.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	daemon   string // path of the built truthrouted binary
	workdir  string // scratch directory inside the checkout
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "hot-binary, drift-binary or campaign")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	daemonBin := fs.String("daemon", "", "truthrouted binary")
	workdir := fs.String("workdir", ".bench_build", "directory for generated inputs and trace output")
	spinCPU := fs.Int("spin", -1, "run as the idle spinner on this CPU (the benchmark starts it itself)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *spinCPU >= 0 {
		return spin(*spinCPU, stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opt := options{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		daemon: *daemonBin, workdir: *workdir,
	}
	cpu, pinErr := pinSelf()
	if pinErr == nil {
		pinnedCPU = cpu
	}
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	procs := clientProcs
	if opt.workload == "campaign" {
		procs = campaignProcs
	}
	runtime.GOMAXPROCS(procs)
	rep := &report{out: stdout}
	rep.env(opt)
	if pinErr != nil {
		rep.printf("# cpu pinning failed, running unpinned: %v", pinErr)
	}
	var err error
	switch opt.workload {
	case "hot-binary":
		err = runServing(opt, hotBinary, rep)
	case "drift-binary":
		err = runServing(opt, driftBinary, rep)
	case "campaign":
		err = runCampaign(opt, rep)
	default:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", opt.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.finish(opt.trace); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// now reads the wall clock, the benchmark's measuring instrument.
//
//lint:allow determinism the benchmark measures real elapsed time; no mechanism output depends on it
func now() time.Time { return time.Now() }

// Metric units. Every metric is printed with one of these.
const (
	unitUS    = "us"
	unitMS    = "ms"
	unitNS    = "ns"
	unitS     = "s"
	unitMB    = "MB"
	unitB     = "B"
	unitCount = "count"
	unitRatio = "ratio"
	unitRate  = "1/s"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and its operation counts, prints
// the human-readable lines as they come, and the JSON result last.
type report struct {
	out       io.Writer
	attempted int
	failed    int
	e2e       map[string]metric
	layer     map[string]metric
	// steal0, ticks0 are the pinned CPU's stolen and total ticks when
	// the run began.
	steal0, ticks0 int64
}

// hostTicks reads the stolen and total ticks of the CPU the benchmark
// is pinned to, or of all CPUs when it is not pinned, from /proc/stat
// (zeros where it is unreadable).
func hostTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	prefix := "cpu "
	if pinnedCPU >= 0 {
		prefix = "cpu" + strconv.Itoa(pinnedCPU) + " "
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		for i, f := range strings.Fields(line)[1:] {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return 0, 0
			}
			total += v
			if i == 7 {
				steal = v
			}
		}
	}
	return steal, total
}

func (r *report) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format+"\n", args...)
}

// env records the conditions of the run beside its results.
func (r *report) env(opt options) {
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	r.printf("# perfbench workload=%s seed=%d seconds=%d trace=%v", opt.workload, opt.seed, opt.seconds, opt.trace)
	r.printf("# env nproc=%d gomaxprocs.bench=%d gomaxprocs.daemon=%d cpu=%d go=%s loadavg=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), daemonProcs, pinnedCPU, runtime.Version(), load)
	r.steal0, r.ticks0 = hostTicks()
}

// ops records attempted and failed operations of one kind.
func (r *report) ops(kind string, attempted, failed int) {
	r.attempted += attempted
	r.failed += failed
	r.printf("ops %s attempted=%d failed=%d", kind, attempted, failed)
}

func (r *report) endToEnd(name string, v float64, unit string) {
	if r.e2e == nil {
		r.e2e = map[string]metric{}
	}
	r.e2e[name] = metric{v, unit}
	r.printf("metric %s %s %s", name, strconv.FormatFloat(v, 'g', 6, 64), unit)
}

func (r *report) perLayer(name string, v float64, unit string) {
	if r.layer == nil {
		r.layer = map[string]metric{}
	}
	r.layer[name] = metric{v, unit}
	r.printf("layer %s %s %s", name, strconv.FormatFloat(v, 'g', 6, 64), unit)
}

// finish checks that the mode's metric set is complete and prints the
// JSON result line.
func (r *report) finish(trace bool) error {
	metrics, want := r.e2e, endToEndNames
	if trace {
		metrics, want = r.layer, perLayerNames
	}
	for _, name := range want {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	if len(metrics) != len(want) {
		return fmt.Errorf("%d metrics measured, %d expected", len(metrics), len(want))
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operations attempted")
	}
	if steal, ticks := hostTicks(); ticks > r.ticks0 {
		which := "all CPUs'"
		if pinnedCPU >= 0 {
			which = fmt.Sprintf("CPU %d's", pinnedCPU)
		}
		r.printf("# host: %.1f%% of %s time stolen by the hypervisor during the run",
			100*float64(steal-r.steal0)/float64(ticks-r.ticks0), which)
	}
	blob, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	r.printf("%s", blob)
	return nil
}

// endToEndNames and perLayerNames are the metric sets BENCHMARK.json
// declares; every workload reports all of them.
var endToEndNames = []string{"quote_cpu_us", "p50_us", "p95_us", "update_ms", "setup_s", "rss_mb"}

var perLayerNames = []string{
	"binary.reads_per_kq", "binary.writes_per_kq", "proc.ctxsw_per_kq",
	"proc.gc_per_kq", "proc.gc_pause_us", "proc.alloc_b_per_q",
	"memo.hit_ratio", "memo.trees_per_q", "update.epochs_per_s",
	"graph.load_ms", "graph.shard_ms", "graph.flip_us", "graph.quantum_us",
	"pq.bucket_frac", "sp.tree_us", "core.quote_us", "core.relays_per_q",
	"memo.marshal_us", "wire.encode_ns", "wire.decode_ns", "wire.resp_bytes",
	"binary.rtt_us", "core.batch_ms", "experiment.measure_us", "wireless.place_ms",
	"load.late_us", "trace.residual_frac", "trace.overhead_frac",
}

// percentile returns the nearest-rank p-th percentile (p in (0,100])
// of xs, sorting xs in place, and the number of samples above it.
func percentile(xs []int64, p float64) (int64, int) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	idx := int(p/100*float64(len(xs))+0.5) - 1
	idx = max(0, min(idx, len(xs)-1))
	return xs[idx], len(xs) - 1 - idx
}

// median returns the median of ds (the lower middle for an even count).
func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

// medianF returns the median of xs (the mean of the middle two for an
// even count).
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
