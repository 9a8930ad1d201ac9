package config

import (
	"encoding/json"
	"fmt"
	"sort"

	"github.com/splaykit/splay/internal/apps"
)

// The app catalog: every application a config document may reference
// declares a typed parameter schema — name, kind, default, bounds — so
// documents are validated at compile (and hosted submissions at
// admission) instead of failing opaquely at deploy time, and so
// "splayctl catalog" can show authors what is available without
// reading Go. The schema vocabulary (apps.Schema, apps.Param, the
// parameter kinds) is declared beside the built-in applications, which
// sit below this package.

// Catalog is the set of applications a platform accepts by name.
type Catalog struct {
	order []string
	apps  map[string]apps.Schema
}

// NewCatalog builds an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{apps: make(map[string]apps.Schema)}
}

// Register adds an application schema; duplicates error.
func (c *Catalog) Register(a apps.Schema) error {
	if a.Name == "" {
		return fmt.Errorf("config: app schema needs a name")
	}
	if _, dup := c.apps[a.Name]; dup {
		return fmt.Errorf("config: duplicate catalog app %q", a.Name)
	}
	c.order = append(c.order, a.Name)
	c.apps[a.Name] = a
	return nil
}

// Lookup returns an application's schema.
func (c *Catalog) Lookup(name string) (apps.Schema, bool) {
	a, ok := c.apps[name]
	return a, ok
}

// Apps lists the registered schemas in registration order.
func (c *Catalog) Apps() []apps.Schema {
	out := make([]apps.Schema, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, c.apps[name])
	}
	return out
}

// Names lists the registered application names, sorted.
func (c *Catalog) Names() []string {
	out := append([]string(nil), c.order...)
	sort.Strings(out)
	return out
}

// compileParams turns a document's params mapping into the canonical
// wire JSON (sorted keys — json.Marshal of a map): only explicitly set
// keys travel; defaults belong to the app factory. Unknown parameters,
// wrong kinds and out-of-range values are typed errors.
func (c *Catalog) compileParams(app string, n *node, path string) ([]byte, *Error) {
	schema, ok := c.apps[app]
	if !ok {
		return nil, errf(ErrUnknownApp, path, n, "unknown application %q (catalog: %v)", app, c.Names())
	}
	if n == nil {
		return nil, nil
	}
	if n.kind != mapNode {
		return nil, errf(ErrBadValue, path, n, "params must be a mapping")
	}
	out := make(map[string]any, len(n.keys))
	for i := range n.keys {
		e := &n.keys[i]
		ppath := path + "." + e.key
		p, ok := schema.Param(e.key)
		if !ok {
			return nil, &Error{Code: ErrUnknownParam, Path: ppath, Line: e.keyLine, Col: e.keyCol,
				Msg: fmt.Sprintf("app %q has no parameter %q (have %v)", app, e.key, schema.ParamNames())}
		}
		v, perr := compileParamValue(p, e.val, ppath)
		if perr != nil {
			return nil, perr
		}
		out[e.key] = v
	}
	if len(out) == 0 {
		return nil, nil
	}
	data, err := json.Marshal(out)
	if err != nil {
		return nil, errf(ErrBadValue, path, n, "params do not serialize: %v", err)
	}
	return data, nil
}

// compileParamValue converts one scalar per its declared kind and
// checks bounds.
func compileParamValue(p apps.Param, n *node, path string) (any, *Error) {
	var num float64
	var val any
	switch p.Kind {
	case apps.KindString:
		s, perr := asString(n, path)
		if perr != nil {
			return nil, perr
		}
		return s, nil
	case apps.KindBool:
		b, perr := asBool(n, path)
		if perr != nil {
			return nil, perr
		}
		return b, nil
	case apps.KindInt:
		v, perr := asInt(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = float64(v), v
	case apps.KindFloat:
		v, perr := asFloat(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = v, v
	case apps.KindDuration:
		d, perr := asDuration(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = float64(d), int64(d)
	case apps.KindSize:
		v, perr := asSize(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = float64(v), v
	case apps.KindRate:
		v, perr := asRate(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = v, v
	case apps.KindFraction:
		v, perr := asFraction(n, path)
		if perr != nil {
			return nil, perr
		}
		num, val = v, v
	default:
		return nil, errf(ErrBadValue, path, n, "unhandled parameter kind %v", p.Kind)
	}
	if p.Bounded && (num < p.Min || num > p.Max) {
		return nil, errf(ErrOutOfRange, path, n, "%s is outside %s..%s",
			p.Kind.Format(num), p.Kind.Format(p.Min), p.Kind.Format(p.Max))
	}
	return val, nil
}

// validateParamsJSON checks an already-serialized (wire JSON) parameter
// document against the schema — the hosting plane's admission path.
func (c *Catalog) validateParamsJSON(app string, raw []byte, path string) *Error {
	schema, ok := c.apps[app]
	if !ok {
		return &Error{Code: ErrUnknownApp, Path: path,
			Msg: fmt.Sprintf("unknown application %q (catalog: %v)", app, c.Names())}
	}
	if len(raw) == 0 || string(raw) == "null" {
		return nil
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		return &Error{Code: ErrBadValue, Path: path + ".params", Msg: fmt.Sprintf("params do not parse: %v", err)}
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ppath := path + ".params." + k
		p, ok := schema.Param(k)
		if !ok {
			return &Error{Code: ErrUnknownParam, Path: ppath,
				Msg: fmt.Sprintf("app %q has no parameter %q (have %v)", app, k, schema.ParamNames())}
		}
		if perr := validateParamJSON(p, m[k], ppath); perr != nil {
			return perr
		}
	}
	return nil
}

func validateParamJSON(p apps.Param, raw json.RawMessage, path string) *Error {
	var num float64
	switch p.Kind {
	case apps.KindString:
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return &Error{Code: ErrBadValue, Path: path, Msg: fmt.Sprintf("want a string, got %s", raw)}
		}
		return nil
	case apps.KindBool:
		var b bool
		if err := json.Unmarshal(raw, &b); err != nil {
			return &Error{Code: ErrBadValue, Path: path, Msg: fmt.Sprintf("want a boolean, got %s", raw)}
		}
		return nil
	default:
		if err := json.Unmarshal(raw, &num); err != nil {
			return &Error{Code: ErrBadValue, Path: path, Msg: fmt.Sprintf("want a number, got %s", raw)}
		}
		if (p.Kind == apps.KindInt || p.Kind == apps.KindDuration || p.Kind == apps.KindSize) && num != float64(int64(num)) {
			return &Error{Code: ErrBadValue, Path: path, Msg: fmt.Sprintf("want an integer, got %s", raw)}
		}
	}
	if p.Bounded && (num < p.Min || num > p.Max) {
		return &Error{Code: ErrOutOfRange, Path: path,
			Msg: fmt.Sprintf("%s is outside %s..%s",
				p.Kind.Format(num), p.Kind.Format(p.Min), p.Kind.Format(p.Max))}
	}
	return nil
}

// Builtins catalogs the built-in applications, derived from their
// declarations in internal/apps: the schema "splayctl catalog" prints and
// splayd -host validates against. Each call returns a catalog of the
// caller's own, free to Register further applications on.
func Builtins() *Catalog {
	c := NewCatalog()
	for _, a := range apps.Builtins() {
		if err := c.Register(a.Schema); err != nil {
			panic(err) // static table: duplicates are impossible
		}
	}
	return c
}

// builtinCatalog is what a nil Options.Catalog means; it is never handed
// out, so nothing can register onto it.
var builtinCatalog = Builtins()
