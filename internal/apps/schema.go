package apps

import (
	"fmt"
	"time"
)

// ParamKind types one application parameter.
type ParamKind int

// Parameter kinds and the document syntax each accepts.
const (
	KindString   ParamKind = iota // any scalar
	KindBool                      // true / false
	KindInt                       // 42
	KindFloat                     // 2.5
	KindDuration                  // 30s, 100ms (wire: integer nanoseconds)
	KindSize                      // 64KB, 4MB (wire: integer bytes)
	KindRate                      // 512kbps, 10mbps (wire: bit/s number)
	KindFraction                  // 50% or 0.5 (wire: number in 0..1)
)

func (k ParamKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindDuration:
		return "duration"
	case KindSize:
		return "size"
	case KindRate:
		return "rate"
	case KindFraction:
		return "fraction"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Param is one declared application parameter. Min/Max bound numeric
// kinds when Bounded is set (durations in nanoseconds, sizes in bytes,
// rates in bit/s). Default is documentation — the application applies
// it; compiled documents ship only the keys they set, never defaults.
type Param struct {
	Name    string
	Kind    ParamKind
	Doc     string
	Default any
	Min     float64
	Max     float64
	Bounded bool
}

// Schema declares one application a scenario may reference by name.
type Schema struct {
	Name   string
	Doc    string
	Params []Param
}

// Param looks a parameter up by name.
func (s Schema) Param(name string) (Param, bool) {
	for _, p := range s.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// ParamNames lists the declared parameter names in declaration order.
func (s Schema) ParamNames() []string {
	out := make([]string, len(s.Params))
	for i, p := range s.Params {
		out[i] = p.Name
	}
	return out
}

// Format renders a wire value in the kind's human unit for error
// messages and the catalog listing.
func (k ParamKind) Format(v float64) string {
	switch k {
	case KindDuration:
		return time.Duration(v).String()
	case KindSize:
		switch {
		case v >= 1<<30 && float64(int64(v))/(1<<30) == v/(1<<30):
			return fmt.Sprintf("%gGB", v/(1<<30))
		case v >= 1<<20:
			return fmt.Sprintf("%gMB", v/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%gKB", v/(1<<10))
		}
		return fmt.Sprintf("%gB", v)
	case KindRate:
		switch {
		case v >= 1e9:
			return fmt.Sprintf("%ggbps", v/1e9)
		case v >= 1e6:
			return fmt.Sprintf("%gmbps", v/1e6)
		case v >= 1e3:
			return fmt.Sprintf("%gkbps", v/1e3)
		}
		return fmt.Sprintf("%gbps", v)
	case KindFraction:
		return fmt.Sprintf("%g%%", v*100)
	}
	return fmt.Sprintf("%g", v)
}

// FormatDefault renders a parameter's default for the catalog listing.
func (p Param) FormatDefault() string {
	switch v := p.Default.(type) {
	case nil:
		return "-"
	case time.Duration:
		return v.String()
	case bool:
		return fmt.Sprintf("%v", v)
	case string:
		return v
	case int:
		if p.Kind == KindSize {
			return KindSize.Format(float64(v))
		}
		return fmt.Sprintf("%d", v)
	case float64:
		return p.Kind.Format(v)
	}
	return fmt.Sprintf("%v", p.Default)
}

// FormatBounds renders a parameter's bounds for the catalog listing.
func (p Param) FormatBounds() string {
	if !p.Bounded {
		return "-"
	}
	return p.Kind.Format(p.Min) + ".." + p.Kind.Format(p.Max)
}
