// Package stream is the one idiom of run-time random draws: a stream keyed
// by (seed, domain, id) that belongs to an instance, a host or a plane,
// never to a kernel partition. Only construction-time generators (topology
// graphs, churn traces, workloads, host models) seed a math/rand source.
package stream

import (
	"math/rand"
	"sync/atomic"
)

// Source64 is a splitmix64 stream: eight bytes of state (a math/rand
// source holds 4.9 KB), advanced by one atomic add, so it is safe for
// concurrent use. It implements rand.Source64.
type Source64 struct{ state atomic.Uint64 }

func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Hash is FNV-1a: how a domain, or an owner known by name, enters a key.
func Hash(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// Init keys s as the stream (seed, domain, id) and returns s.
func (s *Source64) Init(seed int64, domain string, id uint64) *Source64 {
	s.state.Store(mix(mix(mix(uint64(seed))^Hash(domain)) ^ id))
	return s
}

// Rand returns a rand.Rand over the stream (seed, domain, id).
func Rand(seed int64, domain string, id uint64) *rand.Rand {
	return rand.New(new(Source64).Init(seed, domain, id))
}

// Uint64 implements rand.Source64.
func (s *Source64) Uint64() uint64 { return mix(s.state.Add(0x9e3779b97f4a7c15)) }

// Int63 implements rand.Source.
func (s *Source64) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source: it restarts s at the state seed.
func (s *Source64) Seed(seed int64) { s.state.Store(uint64(seed)) }

// Float64 draws uniformly from [0, 1).
func (s *Source64) Float64() float64 { return float64(s.Uint64()>>11) / (1 << 53) }
