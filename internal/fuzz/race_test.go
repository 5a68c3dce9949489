//go:build race

package fuzz

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random quarter of the items put back, so pooled storage (block
// tables, trace events, page maps) is re-allocated that often.
const raceEnabled = true
