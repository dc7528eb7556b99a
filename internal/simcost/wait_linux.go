package simcost

import (
	"syscall"
	"time"
)

// waitUntil blocks the calling thread in nanosleep until deadline. The
// kernel timer wakes within tens of microseconds of the deadline, where
// the runtime's timers round a short sleep up to about a millisecond.
func waitUntil(deadline time.Time) {
	for {
		rem := time.Until(deadline)
		if rem <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(rem))
		if err := syscall.Nanosleep(&ts, nil); err != syscall.EINTR {
			return
		}
	}
}
