package ctlproto

import (
	"strconv"

	"github.com/splaykit/splay/internal/llenc"
	"github.com/splaykit/splay/internal/transport"
)

// Fast-path JSON codec for Msg, the control plane's only frame type.
// Profiling the controller at thousands of daemons shows reflection-based
// encoding/json dominating CPU on both sides of the session (REGISTER
// fan-out, ping monitoring), so Msg implements llenc's FastMarshaler and
// FastUnmarshaler. The encoding is byte-for-byte identical to
// encoding/json's output for this struct — field order, omitempty rules,
// HTML escaping — which TestFastCodecMatchesEncodingJSON checks
// differentially; anything the fast path cannot reproduce exactly
// (strings needing escapes, non-ASCII, raw Params payloads) reports
// false and the caller falls back to encoding/json, so the wire format
// never diverges. The character-class rules, lexer primitives and the
// object/array walk are shared with the other codecs via llenc
// (JSONSafe, Lexer.Object/Array).

// AppendJSON implements llenc.FastMarshaler. On success the appended
// bytes equal json.Marshal(m); on false buf is returned unchanged.
func (m *Msg) AppendJSON(buf []byte) ([]byte, bool) {
	if !llenc.JSONSafe(m.Type) || !llenc.JSONSafe(m.Name) || !llenc.JSONSafe(m.Key) || !llenc.JSONSafe(m.Err) {
		return buf, false
	}
	for _, h := range m.Hosts {
		if !llenc.JSONSafe(h) {
			return buf, false
		}
	}
	if j := m.Job; j != nil {
		if len(j.Params) > 0 || !llenc.JSONSafe(j.ID) || !llenc.JSONSafe(j.App) {
			return buf, false
		}
		for _, a := range j.Nodes {
			if !llenc.JSONSafe(a.Host) {
				return buf, false
			}
		}
	}
	b := append(buf, `{"seq":`...)
	b = llenc.AppendUint(b, m.Seq)
	b = append(b, `,"type":"`...)
	b = append(b, m.Type...)
	b = append(b, '"')
	if m.Name != "" {
		b = appendStrField(b, `,"name":"`, m.Name)
	}
	if m.Key != "" {
		b = appendStrField(b, `,"key":"`, m.Key)
	}
	if m.PortLow != 0 {
		b = appendIntField(b, `,"port_low":`, m.PortLow)
	}
	if m.PortHigh != 0 {
		b = appendIntField(b, `,"port_high":`, m.PortHigh)
	}
	if j := m.Job; j != nil {
		b = append(b, `,"job":{"id":"`...)
		b = append(b, j.ID...)
		b = append(b, `","app":"`...)
		b = append(b, j.App...)
		b = append(b, '"')
		if j.Position != 0 {
			b = appendIntField(b, `,"position":`, j.Position)
		}
		if len(j.Nodes) > 0 {
			b = append(b, `,"nodes":[`...)
			for i, a := range j.Nodes {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, `{"host":"`...)
				b = append(b, a.Host...)
				b = append(b, `","port":`...)
				b = strconv.AppendInt(b, int64(a.Port), 10)
				b = append(b, '}')
			}
			b = append(b, ']')
		}
		b = append(b, '}')
	}
	if len(m.Hosts) > 0 {
		b = append(b, `,"hosts":[`...)
		for i, h := range m.Hosts {
			if i > 0 {
				b = append(b, ',')
			}
			b = llenc.AppendJSONString(b, h)
		}
		b = append(b, ']')
	}
	if m.Port != 0 {
		b = appendIntField(b, `,"port":`, m.Port)
	}
	if m.Err != "" {
		b = appendStrField(b, `,"err":"`, m.Err)
	}
	b = append(b, '}')
	return b, true
}

func appendStrField(b []byte, prefix, s string) []byte {
	b = append(b, prefix...)
	b = append(b, s...)
	return append(b, '"')
}

func appendIntField(b []byte, prefix string, v int) []byte {
	b = append(b, prefix...)
	return strconv.AppendInt(b, int64(v), 10)
}

// ParseJSON implements llenc.FastUnmarshaler: key switches over
// llenc's object walker for the exact shape the fast encoder (and
// encoding/json on this struct) produces. It reports false — leaving m
// untouched — on anything it does not handle: escape sequences, unknown
// keys, null, floats, raw Params payloads, or a repeated job/nodes
// member (encoding/json merges the second into the first's structs).
// In each switch a key no case names leaves ok false. The caller then
// retries with encoding/json.
func (m *Msg) ParseJSON(data []byte) bool {
	l := llenc.Lexer{Data: data}
	var out Msg
	if !l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "seq":
			out.Seq, ok = l.Uint()
		case "type":
			var b []byte
			b, ok = l.RawString()
			out.Type = internType(b)
		case "name":
			out.Name, ok = l.String()
		case "key":
			out.Key, ok = l.String()
		case "port_low":
			out.PortLow, ok = l.Int()
		case "port_high":
			out.PortHigh, ok = l.Int()
		case "job":
			if out.Job != nil {
				return false
			}
			j := &Job{}
			out.Job = j
			ok = l.Object(func(key []byte) (ok bool) {
				switch string(key) {
				case "id":
					j.ID, ok = l.String()
				case "app":
					j.App, ok = l.String()
				case "position":
					j.Position, ok = l.Int()
				case "nodes":
					if j.Nodes != nil {
						return false
					}
					j.Nodes = []transport.Addr{}
					ok = l.Array(func() bool {
						var a transport.Addr
						ok := l.Object(func(key []byte) (ok bool) {
							switch string(key) {
							case "host":
								a.Host, ok = l.String()
							case "port":
								a.Port, ok = l.Int()
							}
							return ok
						})
						j.Nodes = append(j.Nodes, a)
						return ok
					})
				}
				// Any other key declines, "params" included: raw payloads
				// keep encoding/json's exact semantics via the fallback.
				return ok
			})
		case "hosts":
			out.Hosts = []string{}
			ok = l.Array(func() bool {
				s, ok := l.String()
				out.Hosts = append(out.Hosts, s)
				return ok
			})
		case "port":
			out.Port, ok = l.Int()
		case "err":
			out.Err, ok = l.String()
		}
		return ok
	}) || !l.End() {
		return false
	}
	*m = out
	return true
}

// internType avoids a string allocation for the protocol's fixed command
// and answer types (the compiler performs the switch without converting).
func internType(b []byte) string {
	switch string(b) {
	case THello:
		return THello
	case TWelcome:
		return TWelcome
	case TRegister:
		return TRegister
	case TList:
		return TList
	case TStart:
		return TStart
	case TStop:
		return TStop
	case TFree:
		return TFree
	case TPing:
		return TPing
	case TAck:
		return TAck
	case TErr:
		return TErr
	case TBlacklist:
		return TBlacklist
	}
	return string(b)
}
