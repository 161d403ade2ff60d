//go:build race

package copnet

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of Puts, so paths that draw from a pool allocate
// under it by design.
const raceEnabled = true
