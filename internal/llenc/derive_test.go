package llenc_test

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/llenc/codectest"
)

// fixText is a text type. Values above 0xff render with a character
// encoding/json escapes, so a plan must decline to encode them.
type fixText uint16

func (x fixText) AppendText(b []byte) ([]byte, error) {
	if x > 0xff {
		b = append(b, '<')
	}
	return strconv.AppendUint(b, uint64(x), 16), nil
}

func (x fixText) MarshalText() ([]byte, error) { return x.AppendText(nil) }

func (x *fixText) UnmarshalText(s []byte) error {
	v, err := strconv.ParseUint(strings.TrimPrefix(string(s), "<"), 16, 16)
	if err != nil {
		return err
	}
	*x = fixText(v)
	return nil
}

// fixLeaf has its own codec, the way transport.Addr has: the plan calls it.
type fixLeaf struct {
	N int `json:"n"`
}

func (f fixLeaf) AppendJSON(b []byte) ([]byte, bool) {
	return append(strconv.AppendInt(append(b, `{"n":`...), int64(f.N), 10), '}'), true
}

func (f *fixLeaf) WalkJSON(l *llenc.Lexer) bool {
	return l.Object(func(key []byte) (ok bool) {
		if string(key) == "n" {
			f.N, ok = l.Int()
		}
		return ok
	})
}

type fixInner struct {
	S string  `json:"s"`
	B bool    `json:"b,omitempty"`
	V []int16 `json:"v"`
}

// fixture holds every kind a plan admits.
type fixture struct {
	Str    string          `json:"str"`
	Bool   bool            `json:"bool,omitempty"`
	I8     int8            `json:"i8"`
	I16    int16           `json:"i16,omitempty"`
	I32    int32           `json:"i32"`
	I64    int64           `json:"i64"`
	Int    int             `json:"int"`
	U8     uint8           `json:"u8"`
	U16    uint16          `json:"u16"`
	U32    uint32          `json:"u32,omitempty"`
	U64    uint64          `json:"u64"`
	Uint   uint            `json:"uint"`
	Text   fixText         `json:"text,omitempty"`
	Leaf   fixLeaf         `json:"leaf"`
	Inner  fixInner        `json:"inner,omitempty"`
	List   []fixInner      `json:"list,omitempty"`
	Flags  []bool          `json:"flags"`
	Rows   [][]string      `json:"rows"`
	Ptr    *fixInner       `json:"ptr"`
	Raw    json.RawMessage `json:"raw,omitempty"`
	Plain  int             // keyed by its Go name
	Dash   int             `json:"-"`
	Minus  int             `json:"-,"`
	hidden int
}

// receivers: zero, and one holding old values everywhere — slices with
// stale elements in their spare capacity, which encoding/json decodes
// into, and a pointer, which it merges into and a plan declines.
var (
	fixtureReceivers = []func() fixture{
		func() fixture { return fixture{} },
		func() fixture {
			return fixture{Str: "old", Bool: true, I8: -3, U64: 9, Text: 7, Leaf: fixLeaf{N: 4}, Dash: 5, hidden: 6,
				Inner: fixInner{S: "in", V: []int16{1, 2}},
				List:  []fixInner{{S: "a", B: true, V: []int16{3}}, {S: "stale", V: []int16{4, 5}}}[:1],
				Flags: []bool{true}, Rows: [][]string{{"r"}, {"stale"}}[:1],
				Ptr: &fixInner{S: "old"}, Raw: json.RawMessage(`[1,2]`)}
		},
	}
	listReceivers = []func() []fixInner{
		func() []fixInner { return nil },
		func() []fixInner { return []fixInner{{S: "a"}, {S: "stale", B: true}}[:1] },
	}
)

// fixTail ends in an omitempty string, which ends its allocation: -race's
// pointer checks fail a plan that reads it as a longer header.
type fixTail struct {
	N int    `json:"n"`
	S string `json:"s,omitempty"`
}

// fixTree is recursive: no plan.
type fixTree struct {
	Kids []fixTree `json:"kids"`
}

// fixMarshaler has its own encoding/json codec: no plan.
type fixMarshaler int

func (fixMarshaler) MarshalJSON() ([]byte, error) { return []byte(`1`), nil }

// fixPtrText marshals through a pointer receiver, which encoding/json
// calls only on addressable values: no plan.
type fixPtrText int

func (*fixPtrText) MarshalText() ([]byte, error) { return []byte(`p`), nil }

type fixEmbeds struct {
	fixInner
}

// declines holds one type of each class that gets no plan.
var declines = []func() any{
	func() any { return &struct{ F float64 }{} },
	func() any { return &struct{ M map[string]int }{} },
	func() any { return &struct{ P *int }{} },
	func() any { return &struct{ I any }{} },
	func() any { return &struct{ B []byte }{} },
	func() any { return &struct{ N json.Number }{} },
	func() any { return &fixEmbeds{} },
	func() any {
		return &struct {
			A int `json:"B"`
			B int
		}{}
	},
	func() any {
		return &struct {
			S int `json:"s,string"`
		}{}
	},
	func() any { return &struct{ M fixMarshaler }{} },
	func() any { return &fixTree{} },
	func() any { return &struct{ T fixPtrText }{} },
}

// esc is a JSON escape sequence, which a plan declines in any string.
var esc = string([]byte{'\\', 'u'}) + "0061"

func TestDerivedPlansEveryKind(t *testing.T) {
	full := fixture{Str: "s", Bool: true, I8: -128, I16: 32767, I32: -1 << 31, I64: -1 << 63, Int: 1 << 62,
		U8: 255, U16: 65535, U32: 1<<32 - 1, U64: 1<<64 - 1, Uint: 7, Text: 0xab, Leaf: fixLeaf{N: -2},
		Inner: fixInner{S: "in", B: true, V: []int16{-1, 0}}, List: []fixInner{{}, {S: "x", V: []int16{}}},
		Flags: []bool{false, true}, Rows: [][]string{nil, {}, {"a", "b"}}, Ptr: &fixInner{S: "p", V: []int16{1}},
		Raw: json.RawMessage(`{"k":[1,"v",null]}`), Plain: 3, Dash: 4, Minus: 5}
	codectest.Accepts(t, full)
	codectest.Accepts(t, fixture{})
	codectest.Accepts(t, []fixInner{{S: "a"}})
	codectest.Accepts(t, fixText(3))
	codectest.Accepts(t, fixLeaf{N: 1})
	codectest.Accepts(t, &fixTail{N: 1})
	// A raw span encoding/json would rewrite (compact, HTML-escape) and a
	// raw null decline to encode.
	for _, v := range []fixture{{Str: "<"}, {Text: 0x100}, {List: []fixInner{{S: "ü"}}}, {Ptr: &fixInner{S: "<"}},
		{Raw: json.RawMessage(`{ "k" : 1 }`)}, {Raw: json.RawMessage(`{"h":"<"}`)}, {Raw: json.RawMessage(`null`)},
		{Raw: json.RawMessage(`{"k"`)}} {
		if codectest.CheckAppend(t, v) {
			t.Errorf("encoded %+v, which encoding/json escapes", v)
		}
	}
	for _, src := range []string{
		`{"str":"a` + esc + `"}`, `{"STR":"a"}`, `{"nope":1}`, `{"i8":128}`, `{"i8":-129}`, `{"u8":256}`,
		`{"u8":-1}`, `{"int":1.5}`, `{"str":null}`, `{"inner":null}`, `{"text":1}`, `{"text":"zz"}`,
		`{"bool":1}`, `{"flags":[true,]}`, `{"Dash":1}`, `{"hidden":1}`, `{"raw":null}`, `{"raw":01}`,
		`{"ptr":{"s":1}}`,
	} {
		if v := (fixture{Str: "old"}); llenc.ParseDerived([]byte(src), &v) {
			t.Errorf("accepted %s", src)
		}
		codectest.Check(t, []byte(src), fixtureReceivers...)
	}
	// Into a non-nil pointer encoding/json merges: a plan declines.
	if v := (fixture{Ptr: &fixInner{S: "old"}}); llenc.ParseDerived([]byte(`{"ptr":{"b":true}}`), &v) {
		t.Errorf("parsed into a non-nil pointer: %+v", v.Ptr)
	}
	codectest.Check(t, []byte(`{"ptr":{"b":true}}`), fixtureReceivers...)
	for i, d := range declines {
		if v := d(); llenc.ParseDerived([]byte(`{}`), v) {
			t.Errorf("decline class %d: parsed into %T", i, v)
		} else if _, ok := llenc.AppendDerived(nil, v); ok {
			t.Errorf("decline class %d: encoded %T", i, v)
		}
	}
}

// TestDerivedDeclineLeavesReceiver pins that a declined parse into a
// reused receiver puts it back and allocates nothing doing so.
func TestDerivedDeclineLeavesReceiver(t *testing.T) {
	v := fixtureReceivers[1]()
	for _, src := range []string{`{"nope":1}`, `{"i8":300}`, `[1]`} {
		if llenc.ParseDerived([]byte(src), &v) {
			t.Fatalf("accepted %s", src)
		}
		codectest.Check(t, []byte(src), fixtureReceivers...)
		if raceEnabled {
			continue
		}
		data := []byte(src)
		if n := testing.AllocsPerRun(100, func() { llenc.ParseDerived(data, &v) }); n != 0 {
			t.Errorf("declined %s: %v allocs/op, want 0", src, n)
		}
	}
}

// TestDerivedPlansAcrossThreads has several goroutines meet types for the
// first time at once, as both kernel partitions' threads do: under -race
// it checks that plans are published safely.
func TestDerivedPlansAcrossThreads(t *testing.T) {
	type a struct {
		X []string `json:"x"`
	}
	type b struct {
		A a   `json:"a"`
		N int `json:"n"`
	}
	want := `{"a":{"x":["p"]},"n":2}`
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				var v b
				if !llenc.ParseDerived([]byte(want), &v) {
					t.Error("declined")
					return
				}
				if got, ok := llenc.AppendDerived(nil, v); !ok || string(got) != want {
					t.Errorf("encoded %s, %v", got, ok)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzDerived feeds arbitrary bytes to the plan of a type holding every
// admitted kind, and of a slice of structs, under the house oracle (see
// codectest.Check); encodes whatever encoding/json decodes from them; and
// checks that no decline class ever takes a plan.
func FuzzDerived(f *testing.F) {
	for _, src := range []string{
		`{}`, `null`, `[]`,
		`{"str":"s","bool":true,"i8":-128,"i16":32767,"i32":-2147483648,"i64":-9223372036854775808,"int":1,` +
			`"u8":255,"u16":65535,"u32":4294967295,"u64":18446744073709551615,"uint":0,"text":"ab","leaf":{"n":-2},` +
			`"inner":{"s":"in","b":true,"v":[-1,0]},"list":[{},{"s":"x","v":[]}],"flags":[false,true],` +
			`"rows":[null,[],["a","b"]],"Plain":3,"-":5}`,
		` { "list" : [ { "s" : "a" } , { "v" : [ 1 ] } ] , "rows" : [ [ "x" ] ] } `,
		`{"list":[{"s":"a"}],"list":[{"v":[1]},{}],"rows":[["a"],["b"]],"rows":[["c"]],"flags":[true],"flags":null}`,
		`{"i8":128}`, `{"u8":-1}`, `{"u64":18446744073709551616}`, `{"int":1e2}`, `{"int":-0}`, `{"u16":01}`,
		`{"STR":"a"}`, `{"str":"a` + esc + `"}`, `{"str":"é"}`, `{"text":"<1ff"}`, `{"text":"` + esc + `"}`,
		`{"leaf":{"n":1,"n":2}}`, `{"inner":{"v":null},"inner":{"s":"t"}}`, `[{"s":"a"},{"b":true}]`,
		`{"flags":[true,]}`, `{"str":"a"}x`, `{"bool":false,"bool":true}`,
		`{"ptr":{"s":"p","v":[1]},"raw":{"k":[1,"v",null]}}`, `{"ptr":null,"raw":"s"}`, `{"ptr":{},"ptr":{"b":true}}`,
		`{"raw":null}`, `{"raw": [ 1 ] }`, `{"raw":"\u003c"}`,
	} {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		codectest.Check(t, data, fixtureReceivers...)
		codectest.Check(t, data, listReceivers...)
		var v fixture
		if json.Unmarshal(data, &v) == nil {
			codectest.CheckAppend(t, v)
		}
		for i, d := range declines {
			if v := d(); llenc.ParseDerived(data, v) {
				t.Fatalf("decline class %d: parsed %q into %T", i, data, v)
			}
		}
	})
}
