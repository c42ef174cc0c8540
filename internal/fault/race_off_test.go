//go:build !race

package fault_test

// raceEnabled reports a -race build, where sync.Pool drops items at random
// and allocation counts stop meaning anything.
const raceEnabled = false
