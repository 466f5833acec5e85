package main

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// During a stop-and-wait ingest phase the generator and the daemon each
// get a CPU of their own: the generator the first CPU the benchmark may
// use, the daemon the second. Left to the scheduler, the two processes
// (and both Go runtimes' spinning threads) meet on one CPU in some
// seconds and not in others, and every round trip pays for whichever
// happened: on the two-vCPU reference host the run-to-run spread of
// stop-and-wait throughput was about twice that of the split. Detection
// needs both CPUs, so every phase that closes windows runs unpinned.
//
// Affinity is per thread on Linux, so pinning a process sets every
// thread listed under /proc/<pid>/task; a thread started later inherits
// the mask of the thread that started it.

// cpuMask is a sched_setaffinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }
func (m *cpuMask) count() (n int) {
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// cpus is the split the benchmark pins to: the mask it started with, and
// the CPUs of the generator and of the daemon, or ok false when fewer
// than two CPUs are allowed and nothing is pinned.
var cpus = func() (s struct {
	all         cpuMask
	gen, daemon int
	ok          bool
}) {
	if err := getAffinity(&s.all); err != nil || s.all.count() < 2 {
		return s
	}
	var picked []int
	for c := 0; c < len(s.all)*64 && len(picked) < 2; c++ {
		if s.all.has(c) {
			picked = append(picked, c)
		}
	}
	s.gen, s.daemon, s.ok = picked[0], picked[1], true
	return s
}()

func getAffinity(m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// setProcessAffinity sets the mask of every thread of pid. It walks the
// thread list twice, so a thread started during the first walk from a
// thread not yet set is caught by the second.
func setProcessAffinity(pid int, m cpuMask) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return fmt.Errorf("set affinity of %d: %w", pid, err)
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
			// A thread that exited between the listing and the call
			// (ESRCH) needs no mask.
			if e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("set affinity of thread %d of %d: %w", tid, pid, e)
			}
		}
	}
	return nil
}

// pinSplit puts the generator on its CPU and the processes pids on the
// daemon's.
func pinSplit(pids ...int) error {
	if !cpus.ok {
		return nil
	}
	var gen, dmn cpuMask
	gen.set(cpus.gen)
	dmn.set(cpus.daemon)
	if err := setProcessAffinity(os.Getpid(), gen); err != nil {
		return err
	}
	for _, pid := range pids {
		if err := setProcessAffinity(pid, dmn); err != nil {
			return err
		}
	}
	return nil
}

// unpinSplit gives the generator and the processes pids every CPU the
// benchmark started with again.
func unpinSplit(pids ...int) error {
	if !cpus.ok {
		return nil
	}
	for _, pid := range append([]int{os.Getpid()}, pids...) {
		if err := setProcessAffinity(pid, cpus.all); err != nil {
			return err
		}
	}
	return nil
}

// cpuSplit is the processes of the system under test that a stop-and-wait
// phase pins to the daemon's CPU: the daemon, and the reference server.
type cpuSplit []int

func (s cpuSplit) pin() error   { return pinSplit(s...) }
func (s cpuSplit) unpin() error { return unpinSplit(s...) }
