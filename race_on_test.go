//go:build race

package splay_test

// raceEnabled lets heap measurements skip under the race detector, which
// changes what the heap holds.
const raceEnabled = true
