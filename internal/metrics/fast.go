package metrics

import (
	"github.com/splaykit/splay/internal/llenc"
)

// Fast-path JSON codec for Report, the metrics plane's only frame
// type, carrying the same contract as the rpc/ctlproto codecs: the
// encoding is byte-for-byte identical to encoding/json's output for
// this struct (field order, omitempty rules, HTML escaping), and the
// parser either reproduces encoding/json's result exactly or declines
// — leaving the receiver untouched — so the caller falls back and the
// wire format can never diverge. TestReportCodecMatchesEncodingJSON
// and the fuzz targets check both directions differentially. A
// steady-state report is almost entirely small integers, so the fast
// path removes reflection from the one frame every instrumented node
// emits continuously.

// AppendJSON implements llenc.FastMarshaler. On success the appended
// bytes equal json.Marshal(r); on false buf is returned with its
// original length.
func (r *Report) AppendJSON(buf []byte) ([]byte, bool) {
	if !llenc.JSONSafe(r.Key) || !llenc.JSONSafe(r.Node) {
		return buf, false
	}
	for i := range r.Defs {
		if !llenc.JSONSafe(r.Defs[i].Name) {
			return buf, false
		}
	}
	b := append(buf, `{"key":`...)
	b = llenc.AppendJSONString(b, r.Key)
	if r.Node != "" {
		b = append(b, `,"node":`...)
		b = llenc.AppendJSONString(b, r.Node)
	}
	b = append(b, `,"seq":`...)
	b = llenc.AppendUint(b, r.Seq)
	if len(r.Defs) > 0 {
		b = append(b, `,"defs":[`...)
		for i, d := range r.Defs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"i":`...)
			b = llenc.AppendInt(b, int64(d.ID))
			b = append(b, `,"n":`...)
			b = llenc.AppendJSONString(b, d.Name)
			b = append(b, `,"k":`...)
			b = llenc.AppendUint(b, uint64(d.Kind))
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(r.C) > 0 {
		b = append(b, `,"c":[`...)
		for i, d := range r.C {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"i":`...)
			b = llenc.AppendInt(b, int64(d.ID))
			b = append(b, `,"d":`...)
			b = llenc.AppendUint(b, d.D)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(r.G) > 0 {
		b = append(b, `,"g":[`...)
		for i, g := range r.G {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"i":`...)
			b = llenc.AppendInt(b, int64(g.ID))
			b = append(b, `,"v":`...)
			b = llenc.AppendInt(b, g.V)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if len(r.H) > 0 {
		b = append(b, `,"h":[`...)
		for i := range r.H {
			h := &r.H[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"i":`...)
			b = llenc.AppendInt(b, int64(h.ID))
			b = append(b, `,"b":`...)
			if h.B == nil {
				b = append(b, "null"...)
			} else {
				b = append(b, '[')
				for j, v := range h.B {
					if j > 0 {
						b = append(b, ',')
					}
					b = llenc.AppendUint(b, v)
				}
				b = append(b, ']')
			}
			if h.S != 0 {
				b = append(b, `,"s":`...)
				b = llenc.AppendInt(b, h.S)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}'), true
}

// ParseJSON implements llenc.FastUnmarshaler: key switches over
// llenc's object/array walkers for the exact shape the fast encoder
// (and encoding/json on this struct) produces. Escape sequences, unknown
// keys, floats, out-of-range integers and a repeated defs/c/g/h member
// (encoding/json decodes the second into the first's elements) all
// report false with r untouched, and the caller retries with
// encoding/json.
func (r *Report) ParseJSON(data []byte) bool {
	l := llenc.Lexer{Data: data}
	var out Report
	if !l.Object(func(key []byte) (ok bool) {
		switch string(key) {
		case "key":
			out.Key, ok = l.String()
		case "node":
			out.Node, ok = l.String()
		case "seq":
			out.Seq, ok = l.Uint()
		case "defs":
			if out.Defs != nil {
				return false
			}
			out.Defs = []Def{}
			ok = l.Array(func() bool {
				var d Def
				ok := l.Object(func(key []byte) (ok bool) {
					switch string(key) {
					case "i":
						d.ID, ok = l.Int()
					case "n":
						d.Name, ok = l.String()
					case "k":
						var k uint64
						k, ok = l.Uint()
						d.Kind = Kind(k)
						ok = ok && k <= 255 // uint8 overflow: encoding/json rejects
					}
					return ok
				})
				out.Defs = append(out.Defs, d)
				return ok
			})
		case "c":
			if out.C != nil {
				return false
			}
			out.C = []Delta{}
			ok = l.Array(func() bool {
				var d Delta
				ok := l.Object(func(key []byte) (ok bool) {
					switch string(key) {
					case "i":
						d.ID, ok = l.Int()
					case "d":
						d.D, ok = l.Uint()
					}
					return ok
				})
				out.C = append(out.C, d)
				return ok
			})
		case "g":
			if out.G != nil {
				return false
			}
			out.G = []GaugeVal{}
			ok = l.Array(func() bool {
				var g GaugeVal
				ok := l.Object(func(key []byte) (ok bool) {
					switch string(key) {
					case "i":
						g.ID, ok = l.Int()
					case "v":
						var v int
						v, ok = l.Int()
						g.V = int64(v)
					}
					return ok
				})
				out.G = append(out.G, g)
				return ok
			})
		case "h":
			if out.H != nil {
				return false
			}
			out.H = []HistDelta{}
			ok = l.Array(func() bool {
				var h HistDelta
				ok := l.Object(func(key []byte) (ok bool) {
					switch string(key) {
					case "i":
						h.ID, ok = l.Int()
					case "b":
						if l.Pos < len(l.Data) && l.Data[l.Pos] == 'n' {
							// null is the nil slice, as in encoding/json;
							// Value accepts no other literal starting with n.
							h.B = nil
							_, ok = l.Value()
							return ok
						}
						h.B = []uint64{}
						ok = l.Array(func() bool {
							v, ok := l.Uint()
							h.B = append(h.B, v)
							return ok
						})
					case "s":
						var v int
						v, ok = l.Int()
						h.S = int64(v)
					}
					return ok
				})
				out.H = append(out.H, h)
				return ok
			})
		}
		return ok
	}) || !l.End() {
		return false
	}
	*r = out
	return true
}
