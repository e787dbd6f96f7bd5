package main

import (
	"syscall"
	"time"
)

// sleepUntilDue blocks for about d. The runtime's timers wake a mostly
// idle process up to a millisecond late, which would add up to a
// millisecond to every open-loop latency; a nanosleep on the goroutine's
// thread wakes within the kernel's timer slack (50µs by default), so it
// asks for that much less. The runtime hands the thread's processor to
// other goroutines while it sleeps.
func sleepUntilDue(d time.Duration) {
	const slack = 40 * time.Microsecond
	if d <= slack {
		return
	}
	ts := syscall.NsecToTimespec(int64(d - slack))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
