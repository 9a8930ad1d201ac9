package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
)

// cpuProfile is the bench-started runtime/pprof CPU profile of a traced
// window. A nil profile does nothing: untraced runs are never sampled.
type cpuProfile struct {
	buf bytes.Buffer
	on  bool
}

func (p *cpuProfile) start() error {
	if p == nil {
		return nil
	}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return fmt.Errorf("bench: cpu profile: %w", err)
	}
	p.on = true
	return nil
}

func (p *cpuProfile) stop() {
	if p == nil || !p.on {
		return
	}
	pprof.StopCPUProfile()
	p.on = false
}

// A small reader of the gzip'd pprof protobuf — just enough to walk
// samples to the function name of their innermost frame — so the bench
// needs no module beyond the standard library. Field numbers are those
// of profile.proto.

// leafSamples returns, per leaf function name, the summed value of the
// profile's last sample type (cpu nanoseconds for a CPU profile).
func leafSamples(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id → leaf function id
		funcName  = map[uint64]uint64{} // function id → string index
		stringTab []string
	)
	err = eachField(raw, func(num int, varint uint64, body []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := eachField(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id, packed or not
					ids, err := uvarints(v, b)
					if err != nil {
						return err
					}
					if first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2: // value
					vals, err := uvarints(v, b)
					if err != nil {
						return err
					}
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			gotLine := false
			err := eachField(body, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first entry is the innermost inlined frame
					if gotLine {
						return nil
					}
					gotLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			err := eachField(body, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			stringTab = append(stringTab, string(body))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := map[string]int64{}
	for _, s := range samples {
		name := "(unknown)"
		if idx := funcName[locFunc[s.leaf]]; idx > 0 && int(idx) < len(stringTab) {
			name = stringTab[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

var errTruncated = errors.New("bench: profile: truncated protobuf")

// eachField walks one protobuf message. Varint fields arrive in varint,
// length-delimited ones in body; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, varint uint64, body []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			body := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, body); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("bench: profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// uvarints decodes a repeated integer field in either encoding: one
// varint (body nil) or a packed run.
func uvarints(varint uint64, body []byte) ([]uint64, error) {
	if body == nil {
		return []uint64{varint}, nil
	}
	var out []uint64
	for len(body) > 0 {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, v)
		body = body[n:]
	}
	return out, nil
}
