// Package codectest is the differential oracle shared by the fuzzers and
// fast-path tests of the one value codec, a type's derived plan, run
// through the entry points the seams use, llenc.AppendDerived and
// ParseDerived. encoding/json is the reference; the plan may only ever
// agree with it or decline.
package codectest

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"github.com/splaykit/splay/internal/llenc"
)

// Check runs the decode half of the contract on data, once per receiver:
// each function returns a fresh receiver (zero, or holding old values and
// spare capacity, with no memory shared between calls). An accepted parse
// must leave the receiver equal to what json.Unmarshal leaves in an
// identical one — and the value it produced must then encode under
// CheckAppend; a declined parse must leave it untouched.
func Check[T any](t testing.TB, data []byte, receivers ...func() T) {
	t.Helper()
	for i, fresh := range receivers {
		fast := fresh()
		if !llenc.ParseDerived(data, &fast) {
			if !reflect.DeepEqual(fast, fresh()) {
				t.Fatalf("receiver %d: declined parse of %q mutated the receiver: %+v", i, data, fast)
			}
			continue
		}
		want := fresh()
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("receiver %d: fast parser accepted %q, encoding/json rejects: %v", i, data, err)
		}
		if !reflect.DeepEqual(fast, want) {
			t.Fatalf("receiver %d: parse diverges for %q:\n fast %+v\n json %+v", i, data, fast, want)
		}
		CheckAppend(t, fast)
	}
}

// CheckAppend runs the encode half: an accepted encode appends exactly
// json.Marshal's bytes after what buf held, a declined one returns buf
// unchanged. It reports whether the codec accepted.
func CheckAppend[T any](t testing.TB, v T) bool {
	t.Helper()
	const prefix = "\x00kept"
	got, ok := llenc.AppendDerived([]byte(prefix), v)
	if !ok {
		if string(got) != prefix {
			t.Fatalf("declined encode of %+v changed buf to %q", v, got)
		}
		return false
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("encode accepted %+v, json.Marshal rejects: %v", v, err)
	}
	if !bytes.Equal(got, append([]byte(prefix), want...)) {
		t.Fatalf("encode diverges for %+v:\n fast %s\n json %s", v, got[len(prefix):], want)
	}
	return true
}

// Accepts is for a protocol's TestHotMessagesTakeTheFastPath: v must take
// its plan both ways — encode, then parse its own bytes back into a zero
// receiver — so a member added later that the plan cannot carry fails a
// test instead of falling back to encoding/json forever.
func Accepts[T any](t testing.TB, v T) {
	t.Helper()
	if !CheckAppend(t, v) {
		t.Fatalf("encode declined %+v", v)
	}
	wire, _ := json.Marshal(v)
	var back T
	if !llenc.ParseDerived(wire, &back) {
		t.Fatalf("parse declined %s", wire)
	}
	Check(t, wire, func() T { var zero T; return zero })
}
