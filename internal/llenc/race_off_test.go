//go:build !race

package llenc_test

const raceEnabled = false
