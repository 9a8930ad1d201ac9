package config

import (
	"strconv"
	"strings"
	"time"

	"github.com/splaykit/splay/internal/apps"
)

// Human-unit scalar conversions. Every converter takes the node for
// positions and a schema path for the error; quoted scalars are always
// strings, so a quoted "30s" where a duration belongs is declined
// rather than coerced.

// scalarValue converts a scalar per kind — the one kind switch behind
// app parameters and every scalar document field. It returns the value
// as it lands (a string, bool, int64, float64 or time.Duration) and, for
// numeric kinds, its magnitude for bound checks.
func scalarValue(kind apps.ParamKind, n *node, path string) (any, float64, *Error) {
	switch kind {
	case apps.KindString:
		s, perr := asString(n, path)
		return s, 0, perr
	case apps.KindBool:
		b, perr := asBool(n, path)
		return b, 0, perr
	case apps.KindInt:
		v, perr := asInt(n, path)
		return v, float64(v), perr
	case apps.KindFloat:
		v, perr := asFloat(n, path)
		return v, v, perr
	case apps.KindDuration:
		d, perr := asDuration(n, path)
		return d, float64(d), perr
	case apps.KindSize:
		v, perr := asSize(n, path)
		return v, float64(v), perr
	case apps.KindRate:
		v, perr := asRate(n, path)
		return v, v, perr
	case apps.KindFraction:
		v, perr := asFraction(n, path)
		return v, v, perr
	}
	return nil, 0, errf(ErrBadValue, path, n, "unhandled parameter kind %v", kind)
}

// asScalar asserts the node is a scalar.
func asScalar(n *node, path string) (string, *Error) {
	if n == nil {
		return "", &Error{Code: ErrMissing, Path: path, Msg: "value required"}
	}
	if n.kind != scalarNode {
		return "", errf(ErrBadValue, path, n, "want a scalar, got a %s", n.kind)
	}
	return n.scalar, nil
}

// asString accepts any scalar verbatim.
func asString(n *node, path string) (string, *Error) {
	return asScalar(n, path)
}

// asBool accepts true/false only (no yes/on coercions).
func asBool(n *node, path string) (bool, *Error) {
	s, perr := asScalar(n, path)
	if perr != nil {
		return false, perr
	}
	switch s {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, errf(ErrBadValue, path, n, "want true or false, got %q", s)
}

// asInt accepts a plain base-10 integer.
func asInt(n *node, path string) (int64, *Error) {
	s, perr := asScalar(n, path)
	if perr != nil {
		return 0, perr
	}
	if n.quoted {
		return 0, errf(ErrBadValue, path, n, "want an integer, got a quoted string")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, errf(ErrBadValue, path, n, "want an integer, got %q", s)
	}
	return v, nil
}

// asFloat accepts a plain decimal number.
func asFloat(n *node, path string) (float64, *Error) {
	s, perr := asScalar(n, path)
	if perr != nil {
		return 0, perr
	}
	if n.quoted {
		return 0, errf(ErrBadValue, path, n, "want a number, got a quoted string")
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, errf(ErrBadValue, path, n, "want a number, got %q", s)
	}
	return v, nil
}

// asDuration accepts Go duration syntax ("30s", "100ms", "5m") or "0".
func asDuration(n *node, path string) (time.Duration, *Error) {
	s, perr := asScalar(n, path)
	if perr != nil {
		return 0, perr
	}
	if n.quoted {
		return 0, errf(ErrBadValue, path, n, "want a duration, got a quoted string")
	}
	if s == "0" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, errf(ErrBadValue, path, n, "want a duration like 30s or 100ms, got %q", s)
	}
	if d < 0 {
		return 0, errf(ErrOutOfRange, path, n, "duration %s is negative", d)
	}
	return d, nil
}

// asSize accepts byte sizes with binary units: "64KB" (= 64×1024),
// "4MB", "1GB", or a plain byte count.
func asSize(n *node, path string) (int64, *Error) {
	s, perr := asScalar(n, path)
	if perr != nil {
		return 0, perr
	}
	if n.quoted {
		return 0, errf(ErrBadValue, path, n, "want a size, got a quoted string")
	}
	mult := int64(1)
	num := s
	for _, u := range []struct {
		suffix string
		mult   int64
	}{{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"B", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			num = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	v, err := strconv.ParseInt(num, 10, 64)
	if err != nil || v < 0 {
		return 0, errf(ErrBadValue, path, n, "want a size like 64KB or 4MB, got %q", s)
	}
	return v * mult, nil
}

// asRate accepts network rates in decimal units: "512kbps" (= 512 000
// bit/s), "10mbps", "1gbps", "56kbps", or a plain bit/s number.
func asRate(n *node, path string) (float64, *Error) {
	s, perr := asScalar(n, path)
	if perr != nil {
		return 0, perr
	}
	if n.quoted {
		return 0, errf(ErrBadValue, path, n, "want a rate, got a quoted string")
	}
	mult := 1.0
	num := s
	for _, u := range []struct {
		suffix string
		mult   float64
	}{{"kbps", 1e3}, {"mbps", 1e6}, {"gbps", 1e9}, {"bps", 1}} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.mult
			num = strings.TrimSuffix(s, u.suffix)
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v < 0 {
		return 0, errf(ErrBadValue, path, n, "want a rate like 512kbps or 10mbps, got %q", s)
	}
	return v * mult, nil
}

// asFraction accepts "50%" or a plain number in [0, 1].
func asFraction(n *node, path string) (float64, *Error) {
	s, perr := asScalar(n, path)
	if perr != nil {
		return 0, perr
	}
	if n.quoted {
		return 0, errf(ErrBadValue, path, n, "want a fraction, got a quoted string")
	}
	if strings.HasSuffix(s, "%") {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			return 0, errf(ErrBadValue, path, n, "want a percentage like 50%%, got %q", s)
		}
		if v < 0 || v > 100 {
			return 0, errf(ErrOutOfRange, path, n, "percentage %s is outside 0%%..100%%", s)
		}
		return v / 100, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, errf(ErrBadValue, path, n, "want a fraction like 0.5 or 50%%, got %q", s)
	}
	if v < 0 || v > 1 {
		return 0, errf(ErrOutOfRange, path, n, "fraction %g is outside 0..1", v)
	}
	return v, nil
}
