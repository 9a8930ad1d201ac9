package ctlproto

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/splaykit/splay/internal/llenc"
)

// jsonSafe is the character-class rule jsonSafeMsg mirrors the encoder
// with.
var jsonSafe = llenc.JSONSafe

// checkMsgParse is the differential oracle the rpc and metrics fuzzers
// use: whatever the fast parser accepts must match encoding/json's
// decode exactly; whatever it declines must leave the receiver
// untouched.
func checkMsgParse(t *testing.T, data []byte) {
	t.Helper()
	sentinel := Msg{Seq: 99, Type: "sentinel", Job: &Job{ID: "untouched"}}
	fast := sentinel
	if !fast.ParseJSON(data) {
		if !reflect.DeepEqual(fast, sentinel) {
			t.Fatalf("declined parse of %q mutated the receiver: %+v", data, fast)
		}
		return
	}
	var want Msg
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("fast parser accepted %q, encoding/json rejects: %v", data, err)
	}
	if !reflect.DeepEqual(fast, want) {
		t.Fatalf("parse diverges for %q:\n fast %+v (job %+v)\n json %+v (job %+v)", data, fast, fast.Job, want, want.Job)
	}
}

// FuzzMsgParse feeds arbitrary bytes to the control-frame parser.
func FuzzMsgParse(f *testing.F) {
	for _, m := range sampleMsgs() {
		if b, err := json.Marshal(&m); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte(` { "seq" : 2 , "type" : "welcome" , "hosts" : [ "a" , "b" ] } `))
	f.Add([]byte(`{"seq":1,"type":"stop"}`))
	f.Add([]byte(`{"hosts":["a","b"],"hosts":[],"port":1,"port":2}`))
	f.Add([]byte(`{"job":{"nodes":[{"host":"a","host":"b","port":1}]}}`))
	f.Add([]byte(`{"seq":1,"type":"list","job":{"id":"a","app":"x"},"job":{"app":"b"}}`))
	f.Add([]byte(`{"job":{"nodes":[{"host":"h","port":1}],"nodes":[{"port":2}]}}`))
	f.Add([]byte(`{"job":{"id":"a","params":{"k":1}}}`))
	f.Add([]byte(`{"seq":3,"type":"register","job":{"id":"j","app":"cyclon","params": { "report" : true , "l":[1, 2] } ,"position":1}}`))
	f.Add([]byte(`{"job":{"params":{"k":"\u00e9<"},"params":[7]}}`))
	f.Add([]byte(`{"job":{"id":"a","params":null}}`))
	f.Add([]byte(`{"job":{"params":01}}`))
	f.Add([]byte(`{"job":{"params":"unterminated}}`))
	f.Add([]byte(`{"hosts":["a",]}`))
	f.Fuzz(checkMsgParse)
}
