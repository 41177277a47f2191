//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux clock IDs of the calling process's and thread's CPU clocks.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time every thread of the process has used.
//
// The gated end-to-end metrics are CPU times rather than wall-clock times.
// On a virtual machine the hypervisor takes CPUs away from the guest
// (steal time), and on the two-vCPU machine DESIGN.md names steal moved
// between 0% and 31% within an hour. The median wall-clock time of the
// same fixed-trace commits, which wait for two parallel SE workers, rose
// with it by two thirds. A kernel with paravirtualised steal accounting
// leaves steal out of its CPU clocks, so these read the work the program
// did, not how long the host let it run.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling OS thread has used. A goroutine
// can move between threads, so a caller that times a call with it checks
// that syscall.Gettid is the same before and after.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
