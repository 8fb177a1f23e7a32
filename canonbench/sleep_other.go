//go:build !linux

package main

import "time"

// sleepUntil waits until the monotonic offset due from start.
func sleepUntil(start time.Time, due time.Duration) {
	time.Sleep(due - time.Since(start))
}
