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

// SetJoinGrace shortens how long a run whose fleet emptied waits for a
// worker to join, and returns the function that restores it. Call it
// before, and restore it after, the runs it applies to.
func SetJoinGrace(d time.Duration) (restore func()) {
	old := joinGrace
	joinGrace = d
	return func() { joinGrace = old }
}

// ShardCount is the number of shards a run of d with opts cuts its grid
// into.
func (d *Sharded) ShardCount(opts Options) int { return d.shardCount(opts) }
