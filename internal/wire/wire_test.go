package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
)

// full exercises every member of the format, in marshal order.
const full = `{"name":"n","seed":3,"testbed":{"kind":"uniform","daemons":4,"rtt_ns":1000,"bps":8},` +
	`"apps":[{"app":"chord","params":{"bits":16},"nodes":3,"superset":1.5,"full_list":true,` +
	`"env":{"caps":1,"net":{"MaxSockets":4,"MaxTxBytes":0,"MaxRxBytes":0,"Blacklist":null},` +
	`"fs":{"MaxBytes":9,"MaxOpenFiles":1}},"port":7000}],` +
	`"churn":[{"at":5,"join":true,"node":1}],` +
	`"collect":{"metrics":true,"report_every_ns":7,"key":"k","metrics_port":9},` +
	`"settle_ns":1,"duration_ns":2,"register_timeout_ns":3,"controller_port":4,"workers":5}`

// TestDecodeRoundTrip: a document using every member decodes and
// marshals back to the same bytes — the fixed point the SDK's round-trip
// and the compiler's "same bytes" contract stand on.
func TestDecodeRoundTrip(t *testing.T) {
	t.Parallel()
	w, err := Decode([]byte(full))
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte(full)) {
		t.Errorf("round trip drifted:\n in  %s\n out %s", full, out)
	}
	if _, err := Decode([]byte(" {}\n")); err != nil {
		t.Errorf("empty scenario with surrounding space: %v", err)
	}
}

// TestDecodeRejects: a misspelt member at any depth is an error naming
// it — never a silently applied default — and so is anything that is
// not exactly one JSON object.
func TestDecodeRejects(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name, doc, field string
	}{
		{"top level", `{"apps":[{"app":"chord"}],"duration":5}`, "duration"},
		{"app entry", `{"apps":[{"app":"a"},{"app":"b","node":3}]}`, "node"},
		{"testbed", `{"testbed":{"kind":"live","daemons":2,"rtt":5}}`, "rtt"},
		{"collect", `{"collect":{"metrics":true,"report_every":5}}`, "report_every"},
		{"env", `{"apps":[{"app":"a","env":{"cap":1}}]}`, "cap"},
		{"sandbox limits", `{"apps":[{"app":"a","env":{"net":{"MaxSocket":1}}}]}`, "MaxSocket"},
		{"fault plan", `{"faults":{"Event":[]}}`, "Event"},
		{"mistyped", `{"apps":[{"app":"a","nodes":"three"}]}`, "apps.nodes"},
		{"not json", `{broken`, ""},
		{"trailing data", `{"seed":1} {"seed":2}`, ""},
		{"not an object", `[1]`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			w, err := Decode([]byte(tc.doc))
			var derr *DecodeError
			if !errors.As(err, &derr) || w != nil {
				t.Fatalf("Decode = %+v, %v; want a *DecodeError", w, err)
			}
			if derr.Field != tc.field {
				t.Errorf("field = %q, want %q (%v)", derr.Field, tc.field, err)
			}
		})
	}
}
