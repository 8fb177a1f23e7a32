package main

import (
	"syscall"
	"time"
)

// timerSlack is Linux's default timer slack: nanosleep wakes about this
// late, so waits are shortened by it and the rest is spun.
const timerSlack = 50 * time.Microsecond

// sleepUntil waits until the monotonic offset due from start. time.Sleep
// wakes through the runtime's network poller, whose timeouts have
// millisecond resolution on Linux, which would make every request of an
// open loop up to a millisecond late; nanosleep is accurate to the timer
// slack.
func sleepUntil(start time.Time, due time.Duration) {
	if wait := due - time.Since(start) - timerSlack; wait > 0 {
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Since(start) < due {
	}
}
