//go:build race

package llenc_test

// raceEnabled lets allocation pins skip under the race detector, where
// sync.Pool drops a quarter of its Puts on purpose.
const raceEnabled = true
