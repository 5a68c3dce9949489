//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random quarter of the items put back, so pooled storage is
// re-allocated that often.
const raceEnabled = true
