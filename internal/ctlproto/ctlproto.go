// Package ctlproto defines the controller↔daemon wire protocol: a simple
// request/answer exchange over a daemon-initiated connection, framed by
// llenc. The first message is the daemon's HELLO; every subsequent
// exchange is a controller command (REGISTER, LIST, START, FREE, STOP,
// PING) answered by the daemon, matching §3.1's minimal command set and
// the job state machine idle → selected → running.
package ctlproto

import (
	"encoding/json"

	"github.com/splaykit/splay/internal/transport"
)

// Command and answer types.
const (
	THello     MsgType = "hello"     // daemon → controller: introduce + capabilities
	TWelcome   MsgType = "welcome"   // controller → daemon: session + blacklist
	TRegister  MsgType = "register"  // controller → daemon: reserve resources for a job
	TList      MsgType = "list"      // controller → daemon: bootstrap node list
	TStart     MsgType = "start"     // controller → daemon: begin execution
	TStop      MsgType = "stop"      // controller → daemon: terminate a running job
	TFree      MsgType = "free"      // controller → daemon: release a reservation
	TPing      MsgType = "ping"      // controller → daemon: liveness/responsiveness probe
	TAck       MsgType = "ack"       // daemon → controller: positive answer
	TErr       MsgType = "err"       // daemon → controller: negative answer
	TBlacklist MsgType = "blacklist" // controller → daemon: blacklist update (no answer)
)

// MsgType is a frame's command or answer type, a JSON string on the wire.
// It is a text type so that decoding a frame hands back the protocol's
// own constants instead of allocating a string.
type MsgType string

var msgTypes = [...]MsgType{THello, TWelcome, TRegister, TList, TStart, TStop, TFree, TPing, TAck, TErr, TBlacklist}

func (t MsgType) AppendText(b []byte) ([]byte, error) { return append(b, t...), nil }

func (t MsgType) MarshalText() ([]byte, error) { return []byte(t), nil }

func (t *MsgType) UnmarshalText(b []byte) error {
	for _, c := range msgTypes {
		if string(c) == string(b) {
			*t = c
			return nil
		}
	}
	*t = MsgType(b)
	return nil
}

// Job describes a deployment unit shipped to daemons: a registered
// application name plus its parameters (standing in for Lua source, see
// DESIGN.md).
type Job struct {
	ID     string          `json:"id"`
	App    string          `json:"app"`
	Params json.RawMessage `json:"params,omitempty"`
	// Position is the daemon's 1-based rank in the deployment sequence.
	Position int `json:"position,omitempty"`
	// Nodes is the bootstrap list delivered with LIST.
	Nodes []transport.Addr `json:"nodes,omitempty"`
	Seed  int64            `json:"seed,omitempty"` // keys the instances' random streams
}

// Msg is one frame in either direction. Its codec is the plan llenc
// derives from these tags: the wire form is exactly encoding/json's.
type Msg struct {
	Seq  uint64  `json:"seq"`
	Type MsgType `json:"type"`

	// HELLO fields.
	Name     string `json:"name,omitempty"`
	Key      string `json:"key,omitempty"`
	PortLow  int    `json:"port_low,omitempty"`
	PortHigh int    `json:"port_high,omitempty"`

	// Command payloads.
	Job   *Job     `json:"job,omitempty"`
	Hosts []string `json:"hosts,omitempty"` // blacklist patterns

	// Answers.
	Port int    `json:"port,omitempty"` // port granted at REGISTER
	Err  string `json:"err,omitempty"`
}
