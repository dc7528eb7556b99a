//go:build !linux

package simcost

import "time"

// waitUntil sleeps until deadline on the runtime's timers, the portable
// path where nanosleep is not available.
func waitUntil(deadline time.Time) {
	time.Sleep(time.Until(deadline))
}
