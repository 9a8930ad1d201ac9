package logging

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// checkRecordParse is the differential oracle: whatever the fast
// parser accepts must match encoding/json's decode exactly; whatever
// it declines must leave the receiver untouched.
func checkRecordParse(t *testing.T, data []byte) {
	t.Helper()
	sentinel := Record{Key: "sentinel", Msg: "untouched"}
	fast := sentinel
	ok := fast.ParseJSON(data)
	var want Record
	jerr := json.Unmarshal(data, &want)
	if !ok {
		if !reflect.DeepEqual(fast, sentinel) {
			t.Fatalf("declined parse mutated receiver: %+v", fast)
		}
		return
	}
	if jerr != nil {
		t.Fatalf("fast parser accepted %q, encoding/json rejects: %v", data, jerr)
	}
	if !fast.Time.Equal(want.Time) || fast.Key != want.Key || fast.Level != want.Level ||
		fast.Node != want.Node || fast.Msg != want.Msg {
		t.Fatalf("parse diverges for %q:\n fast %+v\n json %+v", data, fast, want)
	}
}

func checkRecordEncode(t *testing.T, r *Record) {
	t.Helper()
	want, jerr := json.Marshal(r)
	got, ok := r.AppendJSON(nil)
	if !ok {
		return // declined: the fallback handles it (or errors identically)
	}
	if jerr != nil {
		t.Fatalf("fast encoder accepted a record encoding/json rejects (%v): %s", jerr, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fast encode diverges:\n got  %s\n want %s", got, want)
	}
	checkRecordParse(t, want)
}

func TestRecordCodecMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	zones := []*time.Location{
		time.UTC,
		time.FixedZone("CET", 3600),
		time.FixedZone("NPT", 5*3600+45*60), // +05:45, whole minutes
		time.FixedZone("odd", 3601),         // offset with seconds: declined
	}
	times := []time.Time{
		time.Unix(0, 0),
		time.Unix(1234567890, 123456789),
		time.Unix(1234567890, 120000000), // trailing zeros trimmed
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), // 5-digit year: declined
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),    // negative year: declined
		{}, // zero time, year 1
	}
	for _, loc := range zones {
		for _, tm := range times {
			rec := &Record{Key: "k-n3", Time: tm.In(loc), Level: Warn, Node: "n3:8000", Msg: "joined ring as 42"}
			checkRecordEncode(t, rec)
		}
	}
	for _, rec := range []*Record{
		{},
		{Key: "k", Time: time.Unix(5, 0).UTC(), Level: Level(-3), Node: "n", Msg: ""},
		{Msg: "üñsafe"},    // declined: non-ASCII
		{Msg: "tab\there"}, // declined: escape needed
		{Node: "html<&>"},  // declined: HTML escaping
	} {
		checkRecordEncode(t, rec)
	}
}

func TestRecordParserDeclines(t *testing.T) {
	t.Parallel()
	for _, s := range []string{
		`{"key":"k","time":"2009-02-13T23:31:30Z","level":1,"node":"n","msg":"m","x":1}`, // unknown key
		`{"key":"k","time":"2009-02-13t23:31:30Z","level":1,"node":"n","msg":"m"}`,       // lowercase t
		`{"key":"k","time":"2009-02-13T23:31:30z","level":1,"node":"n","msg":"m"}`,       // lowercase z
		`{"key":"k","time":"2009-02-13T23:31:30+0100","level":1,"node":"n","msg":"m"}`,   // bad offset
		`{"key":"k","time":"2009-02-13T23:31:30.5Z","level":1.5,"node":"n","msg":"m"}`,   // float level
		`{"key":"k\u0041","time":"2009-02-13T23:31:30Z","level":1,"node":"n","msg":"m"}`, // escape
		`{"key":"k","time":"not a time","level":1,"node":"n","msg":"m"}`,
		`trailing{}`,
	} {
		checkRecordParse(t, []byte(s))
	}
	// Strict-but-valid shapes the fast path must accept.
	for _, s := range []string{
		`{"key":"k","time":"2009-02-13T23:31:30.123456789Z","level":0,"node":"n","msg":"m"}`,
		`{"key":"k","time":"2009-02-13T23:31:30+05:45","level":3,"node":"n","msg":"m"}`,
		`{"key":"k","time":"2009-02-13T23:31:30-08:00","level":-2,"node":"n","msg":"m"}`,
		`{}`,
	} {
		sentinelFree := Record{}
		if !sentinelFree.ParseJSON([]byte(s)) {
			t.Errorf("fast parser declined strict record %s", s)
		}
		checkRecordParse(t, []byte(s))
	}
}

// TestRecordRoundTripOverWriter pins the llenc integration: a Record
// framed by the fast encoder decodes identically through the fast
// parser, and the wire bytes equal the reflection path's.
func TestRecordRoundTripOverWriter(t *testing.T) {
	t.Parallel()
	rec := Record{Key: "k-n7", Time: time.Unix(1234567890, 42).UTC(), Level: Info, Node: "n7:8000", Msg: "85 pieces done"}
	fast, ok := (&rec).AppendJSON(nil)
	if !ok {
		t.Fatal("fast encoder declined a plain record")
	}
	slow, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, slow) {
		t.Fatalf("wire bytes differ:\n fast %s\n slow %s", fast, slow)
	}
	var back Record
	if !back.ParseJSON(fast) {
		t.Fatal("fast parser declined its own encoder's output")
	}
	if !back.Time.Equal(rec.Time) || back.Msg != rec.Msg || back.Key != rec.Key {
		t.Fatalf("round trip drifted: %+v", back)
	}
}

// FuzzRecordParse feeds arbitrary bytes to the record parser; any
// accepted frame must decode identically via encoding/json, any
// declined frame must leave the receiver untouched.
func FuzzRecordParse(f *testing.F) {
	f.Add([]byte(`{"key":"k-n3","time":"2009-02-13T23:31:30.123456789Z","level":2,"node":"n3:8000","msg":"joined ring as 42"}`))
	f.Add([]byte(`{"key":"k","time":"2009-02-13T23:31:30+05:45","level":-2,"node":"n","msg":""}`))
	f.Add([]byte(` { "key" : "ws" , "level" : 1 } `))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"msg":"a","msg":"b","level":1,"level":2}`))
	f.Add([]byte(`{"key":"k","time":"2009-02-13t23:31:30Z"}`))
	f.Add([]byte(`{"key":"k","time":"2009-02-30T23:31:30Z"}`))
	f.Add([]byte(`{"key":"k","time":"2009-02-13T23:31:30,5Z"}`))
	f.Add([]byte(`{"key":"k","time":null}`))
	f.Add([]byte(`{"key":"k\u0041","level":1}`))
	f.Add([]byte(`{"level":1.5}`))
	f.Add([]byte(`{"level":1,}`))
	f.Fuzz(checkRecordParse)
}
