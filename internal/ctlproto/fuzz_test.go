package ctlproto

import (
	"encoding/json"
	"testing"

	"github.com/splaykit/splay/internal/llenc/codectest"
)

// msgReceivers are the receivers every parse is checked into: a zero one,
// one holding old members (a host list with stale spare capacity), and
// one holding a job, into which a frame's job must decline — encoding/json
// would merge it into the old one.
var msgReceivers = []func() Msg{
	func() Msg { return Msg{} },
	func() Msg {
		return Msg{Seq: 99, Type: "sentinel", Name: "old", Hosts: []string{"a", "stale"}[:1], Port: 7}
	},
	func() Msg { return Msg{Seq: 99, Type: TList, Job: &Job{ID: "untouched"}} },
}

// checkMsgParse is the differential oracle the rpc and metrics fuzzers
// use (codectest): whatever the plan accepts must match encoding/json's
// decode exactly, into each receiver, and re-encode as json.Marshal does;
// whatever it declines must leave the receiver untouched. Whatever
// encoding/json decodes must encode as json.Marshal does, or decline.
func checkMsgParse(t *testing.T, data []byte) {
	codectest.Check(t, data, msgReceivers...)
	var m Msg
	if json.Unmarshal(data, &m) == nil {
		codectest.CheckAppend(t, &m)
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
