package main

import (
	"fmt"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// CPU placement. Left to the kernel, the daemon sometimes shared a CPU
// with the load generator and sometimes ran on the other one, and the
// choice held for a whole run: hot-binary's daemon CPU per quote read
// about 3 µs in the first case and 4.5–5.5 µs in the second, where
// every batch wakes the daemon across CPUs, and its p95 then followed
// the hypervisor's steal. The benchmark pins itself to one CPU, and
// with it every daemon it spawns (a child inherits the mask of the
// thread that forks it), so every run measures the same placement.

// cpuSet is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuSet [16]uint64

func schedAffinity(trap uintptr, tid int, s *cpuSet) error {
	_, _, errno := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*s), uintptr(unsafe.Pointer(s)))
	if errno != 0 {
		return errno
	}
	return nil
}

// pinnedCPU is the CPU the benchmark and its daemons run on, or -1
// when pinning failed and they run where the kernel puts them.
var pinnedCPU = -1

// pinSelf pins every thread of the benchmark to the first CPU it may
// use and returns that CPU. Threads the Go runtime starts later, and
// the processes the benchmark spawns, are cloned from pinned threads
// and inherit the mask.
func pinSelf() (int, error) {
	var allowed cpuSet
	if err := schedAffinity(syscall.SYS_SCHED_GETAFFINITY, 0, &allowed); err != nil {
		return -1, fmt.Errorf("sched_getaffinity: %w", err)
	}
	cpu := -1
	for c := 0; c < len(allowed)*64 && cpu < 0; c++ {
		if allowed[c/64]&(1<<(c%64)) != 0 {
			cpu = c
		}
	}
	if cpu < 0 {
		return -1, fmt.Errorf("no CPU in the affinity mask")
	}
	if err := pinTo(cpu); err != nil {
		return -1, err
	}
	return cpu, nil
}

// pinTo pins every current thread of the process to cpu.
func pinTo(cpu int) error {
	var one cpuSet
	one[cpu/64] = 1 << (cpu % 64)
	return eachThread(func(tid int) error {
		if err := schedAffinity(syscall.SYS_SCHED_SETAFFINITY, tid, &one); err != nil {
			return fmt.Errorf("pinning thread %d to CPU %d: %w", tid, cpu, err)
		}
		return nil
	})
}

// eachThread calls f with the id of every current thread of the
// process.
func eachThread(f func(tid int) error) error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := f(tid); err != nil {
			return err
		}
	}
	return nil
}
