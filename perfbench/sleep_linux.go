package main

import (
	"syscall"
	"time"
)

// nanosleep blocks the calling thread for d. time.Sleep rounds short
// sleeps up to about a millisecond here (the runtime's poller waits in
// whole milliseconds), which would add that much generator lag to every
// open-loop request; nanosleep overshoots only by the kernel's timer
// slack, about 50µs by default.
func nanosleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
