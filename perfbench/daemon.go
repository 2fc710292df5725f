package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonProcs is the GOMAXPROCS every spawned daemon runs with. One
// P per process measured cheaper and steadier than the default at a
// fixed offered rate; the value is reported beside the results.
const daemonProcs = 1

// daemon is one running truthrouted process.
type daemon struct {
	cmd      *exec.Cmd
	httpAddr string
	binAddr  string
	lines    chan string   // stdout lines after readiness
	done     chan struct{} // closed once stdout reached EOF
	http     *http.Client
}

// startDaemon spawns truthrouted on topo with both listeners on
// loopback port 0 and returns once it reports the binary listener
// bound: topology load, sharding, CSR build and solver warm all
// happen before that line. The returned duration is spawn-to-ready.
func startDaemon(bin, topo string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, "-topology", topo, "-addr", "127.0.0.1:0", "-binary-addr", "127.0.0.1:0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(daemonProcs))
	cmd.Stderr = os.Stderr
	// The daemon must never outlive the benchmark, even if the
	// benchmark dies without running its cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{
		cmd:   cmd,
		lines: make(chan string, 16), // the daemon prints at most four lines
		done:  make(chan struct{}),
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 2},
			Timeout:   30 * time.Second,
		},
	}
	began := now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting daemon: %w", err)
	}
	go d.readStdout(out)
	for d.binAddr == "" {
		select {
		case line := <-d.lines:
			if a, ok := strings.CutPrefix(line, "truthrouted: binary quote protocol on "); ok {
				d.binAddr = a
			} else if _, rest, ok := strings.Cut(line, " shards on "); ok {
				d.httpAddr = rest
			}
		case <-d.done:
			_ = d.cmd.Wait()
			return nil, 0, fmt.Errorf("daemon exited before becoming ready")
		case <-time.After(60 * time.Second):
			d.kill()
			return nil, 0, fmt.Errorf("daemon not ready after 60s")
		}
	}
	ready := now().Sub(began)
	if d.httpAddr == "" {
		d.kill()
		return nil, 0, fmt.Errorf("daemon reported no HTTP address")
	}
	return d, ready, nil
}

func (d *daemon) readStdout(r io.Reader) {
	defer close(d.done)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		select {
		case d.lines <- sc.Text():
		default: // nobody is listening any more; keep draining the pipe
		}
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit; a
// daemon that does not exit 0 within the grace period is killed and
// reported.
func (d *daemon) stop() error {
	d.http.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling daemon: %w", err)
	}
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		d.kill()
		return fmt.Errorf("daemon did not drain within 20s")
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("daemon exit: %w", err)
	}
	return nil
}

// kill ends the daemon unconditionally and reaps it.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.done
	_ = d.cmd.Wait()
}

// procSample is the daemon's kernel-side state read from /proc.
type procSample struct {
	cpu          time.Duration // time on CPU, summed over live threads
	syscr, syscw int64         // read/write syscalls
	ctxsw        int64         // voluntary + involuntary, summed over live threads
	hwmKB        int64         // peak resident set (VmHWM)
}

// readCPU sums the nanosecond on-CPU time of every live thread of pid
// (the first field of /proc/<pid>/task/<tid>/schedstat). A Go
// process keeps its threads for life, so the sum is monotone.
func readCPU(pid int) (time.Duration, error) {
	base := filepath.Join("/proc", strconv.Itoa(pid), "task")
	tasks, err := os.ReadDir(base)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(base, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between listing and reading
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			return 0, fmt.Errorf("malformed %s/%s/schedstat", base, t.Name())
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("malformed %s/%s/schedstat: %w", base, t.Name(), err)
		}
		total += ns
	}
	return time.Duration(total), nil
}

func readProc(pid int) (procSample, error) {
	var s procSample
	base := filepath.Join("/proc", strconv.Itoa(pid))
	var err error
	if s.cpu, err = readCPU(pid); err != nil {
		return s, err
	}
	ioText, err := os.ReadFile(filepath.Join(base, "io"))
	if err != nil {
		return s, err
	}
	s.syscr = procField(string(ioText), "syscr:")
	s.syscw = procField(string(ioText), "syscw:")
	status, err := os.ReadFile(filepath.Join(base, "status"))
	if err != nil {
		return s, err
	}
	s.hwmKB = procField(string(status), "VmHWM:")
	tasks, err := os.ReadDir(filepath.Join(base, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		ts, err := os.ReadFile(filepath.Join(base, "task", t.Name(), "status"))
		if err != nil {
			continue // the thread exited between listing and reading
		}
		s.ctxsw += procField(string(ts), "voluntary_ctxt_switches:") +
			procField(string(ts), "nonvoluntary_ctxt_switches:")
	}
	return s, nil
}

// procField returns the integer following key at the start of a line
// of a /proc key-value file, or 0 when the key is absent.
func procField(text, key string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, key); ok {
			n, err := strconv.ParseInt(strings.Fields(v)[0], 10, 64)
			if err == nil {
				return n
			}
		}
	}
	return 0
}

// obsSample is the daemon's own view: serve.* counters from /metrics
// and the Go runtime's memstats from /debug/vars.
type obsSample struct {
	Counters map[string]uint64 `json:"counters"`
	mem      memStats
}

type memStats struct {
	NumGC        uint32 `json:"NumGC"`
	PauseTotalNs uint64 `json:"PauseTotalNs"`
	TotalAlloc   uint64 `json:"TotalAlloc"`
}

func (d *daemon) readObs() (obsSample, error) {
	var s obsSample
	if err := d.getJSON("/metrics", &s); err != nil {
		return s, err
	}
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	if err := d.getJSON("/debug/vars", &vars); err != nil {
		return s, err
	}
	s.mem = vars.Memstats
	return s, nil
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.http.Get("http://" + d.httpAddr + path)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }() // read-only; a close error changes nothing
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// daemonWindow is the daemon's state at the two edges of a timed
// phase. The obs scrape happens outside the /proc readings at both
// edges, so the scrape's own syscalls and CPU fall outside the window.
type daemonWindow struct {
	obs0, obs1   obsSample
	proc0, proc1 procSample
}

func (d *daemon) openWindow() (*daemonWindow, error) {
	w := &daemonWindow{}
	var err error
	if w.obs0, err = d.readObs(); err != nil {
		return nil, err
	}
	if w.proc0, err = readProc(d.pid()); err != nil {
		return nil, err
	}
	return w, nil
}

func (d *daemon) closeWindow(w *daemonWindow) error {
	var err error
	if w.proc1, err = readProc(d.pid()); err != nil {
		return err
	}
	w.obs1, err = d.readObs()
	return err
}

func (w *daemonWindow) counter(name string) float64 {
	return float64(w.obs1.Counters[name] - w.obs0.Counters[name])
}
