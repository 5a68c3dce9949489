//go:build !race

package fuzz

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
