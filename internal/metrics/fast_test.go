package metrics

import (
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/llenc/codectest"
)

// checkReportParse is the differential oracle shared by the table tests
// and the fuzzer (see codectest.Check): whatever the derived parser
// accepts must match encoding/json's decode of the same bytes into the
// same receiver — zero, and one holding old values — exactly; whatever it
// declines must leave the receiver untouched.
func checkReportParse(t *testing.T, data []byte) {
	t.Helper()
	codectest.Check(t, data,
		func() Report { return Report{} },
		func() Report {
			return Report{Key: "sentinel", Seq: 999, C: []Delta{{ID: 1, D: 2}, {ID: 3, D: 4}}[:1],
				H: []HistDelta{{ID: 5, B: []uint64{6, 7}, S: 8}}}
		})
}

// checkReportEncode verifies the derived encoding equals json.Marshal.
func checkReportEncode(t *testing.T, rep *Report) {
	t.Helper()
	if !codectest.CheckAppend(t, rep) {
		return // declined: the fallback handles it
	}
	want, _ := json.Marshal(rep)
	checkReportParse(t, want)
}

func TestReportCodecMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	cases := []*Report{
		{Key: "obs", Seq: 1},
		{Key: "obs", Node: "n42", Seq: 7,
			Defs: []Def{{ID: 0, Name: "rpc.calls", Kind: KindCounter}, {ID: 1, Name: "lat", Kind: KindHistPow2}},
			C:    []Delta{{ID: 0, D: 12}},
			H:    []HistDelta{{ID: 1, B: []uint64{21, 3, 40, 1}, S: 123456789}}},
		{Key: "", Seq: 0},
		{Key: "k", Seq: 18446744073709551615,
			G: []GaugeVal{{ID: 3, V: -42}, {ID: 4, V: 1 << 40}}},
		{Key: "k", Seq: 2, H: []HistDelta{{ID: 0, B: []uint64{}}, {ID: 1, B: nil, S: -5}}},
		{Key: "k", Seq: 3, Defs: []Def{{ID: 0, Name: "üñsafe", Kind: KindGauge}}}, // encoder declines
		{Key: "html<&>", Seq: 4}, // encoder declines (HTML escaping)
	}
	for i, rep := range cases {
		rep := rep
		t.Run("", func(t *testing.T) {
			checkReportEncode(t, rep)
			_ = i
		})
	}
}

func TestReportEncoderDeclinesUnsafeStrings(t *testing.T) {
	t.Parallel()
	for _, rep := range []*Report{
		{Key: "tab\there"},
		{Key: "k", Node: "ü"},
		{Key: "k", Defs: []Def{{Name: "quote\""}}},
	} {
		if got, ok := llenc.AppendDerived(nil, rep); ok {
			t.Fatalf("encoder accepted unsafe strings: %s", got)
		}
	}
}

func TestReportParserDeclines(t *testing.T) {
	t.Parallel()
	// All must decline (fall back), none may diverge.
	for _, s := range []string{
		`{"key":"k","seq":1,"extra":2}`,                              // unknown key
		`{"key":"k","seq":-1}`,                                       // negative uint
		`{"key":"k","seq":1.5}`,                                      // float
		`{"key":"k\u0041","seq":1}`,                                  // escape in string
		`{"key":"k","seq":1,"c":[{"i":0,"d":18446744073709551616}]}`, // overflow
		`{"key":"k","seq":1,"defs":[{"i":0,"n":"x","k":256}]}`,       // kind > 255
		`{"key":"k","seq":1,"h":[{"i":0,"b":[1,2,]}]}`,               // trailing comma
		`not json at all`,
		`{"key":"k","seq":1}trailing`,
	} {
		if rep := (Report{Key: "old"}); llenc.ParseDerived([]byte(s), &rep) {
			t.Errorf("accepted %s", s)
		}
		checkReportParse(t, []byte(s))
	}
	// Repeated members are accepted with decode parity: encoding/json
	// decodes a repeated array into the first's elements, and scalars and
	// scalar slices are last-wins.
	for _, s := range []string{
		`{"key":"k","seq":1,"defs":[{"i":1,"n":"a","k":2}],"defs":[{"i":2}]}`,
		`{"key":"k","seq":1,"c":[{"i":1,"d":5}],"c":[{"i":2}]}`,
		`{"key":"k","seq":1,"g":[{"i":1,"v":5}],"g":[{"i":2}]}`,
		`{"key":"k","seq":1,"h":[{"i":1,"b":[1,2],"s":3}],"h":[{"i":2}]}`,
		`{"key":"a","key":"k","seq":1,"seq":2,"h":[{"i":0,"b":[1,2],"b":[3],"b":null}]}`,
	} {
		if rep := (Report{Key: "old"}); !llenc.ParseDerived([]byte(s), &rep) {
			t.Errorf("declined %s", s)
		}
		checkReportParse(t, []byte(s))
	}
}

func TestReportRoundTripRandomized(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	kinds := []Kind{KindCounter, KindGauge, KindHistLinear, KindHistPow2}
	names := []string{"rpc.calls", "simnet.drops", "chord.hops", "deploy.latency", "x"}
	for i := 0; i < 500; i++ {
		rep := &Report{Key: "obs", Node: "", Seq: rng.Uint64()}
		if rng.Intn(2) == 0 {
			rep.Node = names[rng.Intn(len(names))]
		}
		for j := rng.Intn(3); j > 0; j-- {
			rep.Defs = append(rep.Defs, Def{
				ID: rng.Intn(10), Name: names[rng.Intn(len(names))], Kind: kinds[rng.Intn(len(kinds))]})
		}
		for j := rng.Intn(3); j > 0; j-- {
			rep.C = append(rep.C, Delta{ID: rng.Intn(10), D: rng.Uint64()})
		}
		for j := rng.Intn(3); j > 0; j-- {
			rep.G = append(rep.G, GaugeVal{ID: rng.Intn(10), V: rng.Int63() - rng.Int63()})
		}
		for j := rng.Intn(2); j > 0; j-- {
			hd := HistDelta{ID: rng.Intn(10), S: rng.Int63() - rng.Int63()}
			for b := rng.Intn(4); b > 0; b-- {
				hd.B = append(hd.B, uint64(rng.Intn(NumBuckets)), uint64(rng.Intn(1000)+1))
			}
			rep.H = append(rep.H, hd)
		}
		checkReportEncode(t, rep)
	}
}

// FuzzMetricsReportParse feeds arbitrary bytes to the report's derived
// parser; any accepted frame must decode identically via encoding/json
// into the same receiver, any declined frame must leave it untouched.
func FuzzMetricsReportParse(f *testing.F) {
	f.Add([]byte(`{"key":"obs","seq":1}`))
	f.Add([]byte(`{"key":"obs","node":"n3","seq":2,"defs":[{"i":0,"n":"rpc.calls","k":0}],"c":[{"i":0,"d":9}]}`))
	f.Add([]byte(`{"key":"obs","seq":3,"g":[{"i":1,"v":-7}]}`))
	f.Add([]byte(`{"key":"obs","seq":4,"h":[{"i":2,"b":[21,3,40,1],"s":123456}]}`))
	f.Add([]byte(`{"key":"obs","seq":5,"h":[{"i":2,"b":null}]}`))
	f.Add([]byte(`{ "key" : "ws" , "seq" : 6 }`))
	f.Add([]byte(`{"key":"k","seq":18446744073709551615}`))
	f.Add([]byte(`{"key":"k","seq":18446744073709551616}`))
	f.Add([]byte(`{"key":"k","seq":1,"defs":[{"i":-1,"n":"x","k":1}]}`))
	f.Add([]byte(`{"key":"\u006b","seq":1}`))
	f.Add([]byte(`{"h":[{"b":[,]}]}`))
	f.Add([]byte(`{"key":"k","seq":1,"defs":[{"i":1,"n":"a","k":2}],"defs":[{"i":2}]}`))
	f.Add([]byte(`{"key":"k","seq":1,"h":[{"i":1,"b":[1,2],"s":3}],"h":[{"i":2}]}`))
	f.Add([]byte(`{"seq":1,"seq":2,"h":[{"b":[1,2],"b":[3]},{"b":[1],"b":null}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReportParse(t, data)
	})
}

// FuzzMetricsReportEncode fuzzes the encoder differentially over the
// scalar field space.
func FuzzMetricsReportEncode(f *testing.F) {
	f.Add("obs", "n1", uint64(1), "rpc.calls", uint8(0), int(3), uint64(17), int64(-4))
	f.Add("html<&>", "ü", uint64(1<<63), `we"ird`, uint8(9), int(-1), uint64(0), int64(1<<62))
	f.Add("", "", uint64(0), "", uint8(3), int(0), uint64(1), int64(0))
	f.Fuzz(func(t *testing.T, key, node string, seq uint64, name string, kind uint8, id int, d uint64, s int64) {
		rep := &Report{Key: key, Node: node, Seq: seq,
			Defs: []Def{{ID: id, Name: name, Kind: Kind(kind)}},
			C:    []Delta{{ID: id, D: d}},
			G:    []GaugeVal{{ID: id, V: s}},
			H:    []HistDelta{{ID: id, B: []uint64{d % NumBuckets, 1}, S: s}},
		}
		checkReportEncode(t, rep)
	})
}
