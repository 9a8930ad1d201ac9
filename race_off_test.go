//go:build !race

package splay_test

const raceEnabled = false
