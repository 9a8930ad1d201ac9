//go:build race

package rpc

// raceEnabled lets allocation pins skip under the race detector, where
// sync.Pool drops a quarter of its Puts on purpose.
const raceEnabled = true
