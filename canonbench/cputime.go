package main

import (
	"syscall"
	"time"
)

// cpuTime is the CPU time (user and system) the process has used. The
// kernel charges a task only for time it ran, not for time the host took
// the virtual CPU away, so CPU cost per operation does not grow with the
// steal that stretches latency on a shared machine.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
}
