//go:build race

package main

// raceFlag makes TestDeterminismMatrix build the earthsim it execs with
// the race detector whenever the test itself runs under -race, so CI's
// -race invocation covers the shard workers inside the binary.
var raceFlag = []string{"-race"}
