package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// Idle spinner. The host is a VM on a shared machine. A vCPU that goes
// idle halts, the host hands its core to someone else, and waking it
// again can take milliseconds, which the guest books as stolen time.
// drift-binary leaves its CPU idle between 3-ms quotes and read 15–30%
// steal on the pinned CPU in some runs, its p95 then 2.5× the quiet
// value, while two vCPUs kept busy read ~0% steal. During
// drift-binary's daemon phases a child process spins on the pinned
// CPU under SCHED_IDLE: it takes only the time nobody else wants, and
// any waking daemon or generator thread preempts it at once. Its CPU
// time is its own, so no measured CPU figure includes it.

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// spinReady is the line the spinner prints once it runs pinned and
// under SCHED_IDLE.
const spinReady = "spinning"

// spin is the spinner process: it pins itself to cpu, moves every
// thread to SCHED_IDLE, reports ready and spins until it is killed.
// It returns only if it cannot set itself up.
func spin(cpu int, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(1)
	if err := pinTo(cpu); err != nil {
		fmt.Fprintln(stderr, "perfbench spinner:", err)
		return 1
	}
	// Threads the runtime starts later inherit the policy of the
	// thread that creates them.
	var param struct{ priority int32 }
	err := eachThread(func(tid int) error {
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, uintptr(tid), schedIdle, uintptr(unsafe.Pointer(&param)))
		if errno != 0 {
			return fmt.Errorf("SCHED_IDLE for thread %d: %w", tid, errno)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench spinner:", err)
		return 1
	}
	fmt.Fprintln(stdout, spinReady)
	for {
	}
}

// startSpinner runs the spinner on cpu and returns once it spins.
func startSpinner(cpu int) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-spin", strconv.Itoa(cpu))
	cmd.Stderr = os.Stderr
	// The spinner must never outlive the benchmark.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting spinner: %w", err)
	}
	line, err := bufio.NewReader(out).ReadString('\n')
	if err != nil || line != spinReady+"\n" {
		stopSpinner(cmd)
		return nil, fmt.Errorf("spinner did not start: %q, %v", line, err)
	}
	return cmd, nil
}

// stopSpinner kills the spinner and reaps it.
func stopSpinner(cmd *exec.Cmd) {
	_ = cmd.Process.Kill() // an already dead spinner is what we want
	_ = cmd.Wait()         // killed: the exit status is always an error
}
