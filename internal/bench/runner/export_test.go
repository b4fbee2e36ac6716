package runner

import "time"

// SetRequestIdle shortens the dispatcher's idle limit for a test and
// returns the function that restores it. Call it before, and restore it
// after, the runs it applies to.
func SetRequestIdle(d time.Duration) (restore func()) {
	old := requestIdle
	requestIdle = d
	return func() { requestIdle = old }
}
