package llenc

import (
	"encoding"
	"encoding/json"
	"math/bits"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Derived value codecs. A message type whose wire form is plain json tags
// needs no codec of its own: on first use llenc derives a plan for the
// type from its tags — field order, keys, omitempty — and then encodes
// and parses it by field offsets, with no per-message reflection, under
// the fast paths' contract ("Value codecs" in fastjson.go).
// Planned are strings, bools, sized ints and uints (uint8 is a number),
// structs, and slices of those (nil is null, null is nil); pointers to
// planned structs (nil is null, null is nil; parsing into a non-nil one
// declines, because encoding/json would merge into the old pointee);
// json.RawMessage, written verbatim when encoding/json would copy it too
// and read as a strictly validated, copied span (null declines both
// ways); text types (AppendText and MarshalText on the value,
// UnmarshalText on the pointer) travel as JSON strings. A plan is a
// value's only fast codec: transport.Addr and rpc's response envelope
// are planned by their tags like every message. Floats, maps, other
// pointers, interfaces, []byte, json.Number, embedded or duplicate
// fields, tag options other than omitempty, json.Marshaler/Unmarshaler
// types and recursive types get no plan; at run time a plan declines
// strings that need escaping, keys that are not exactly a field's name
// and numbers out of their field's range.
// encoding/json takes all of that, as before.
// Plans are built once per type under a lock and published read-only, so
// both kernel partitions' threads share them.

// AppendDerived appends v's encoding through the plan derived for its
// type and reports whether it did. On false buf is returned with its
// original length and the caller uses encoding/json.
func AppendDerived(buf []byte, v any) ([]byte, bool) {
	e := (*[2]unsafe.Pointer)(unsafe.Pointer(&v))
	if e[1] == nil { // nil, or a nil pointer encoding/json writes as null
		return buf, false
	}
	if c := lookup(e[0], v); c != nil {
		if b, ok := c.enc(c, buf, e[1]); ok {
			return b, true
		}
	}
	return buf, false
}

// ParseDerived parses data into what v points to through the plan derived
// for its type and reports whether it did. On false the receiver is as
// it was and the caller asks encoding/json.
func ParseDerived(data []byte, v any) bool {
	e := (*[2]unsafe.Pointer)(unsafe.Pointer(&v))
	if e[1] == nil || reflect.TypeOf(v).Kind() != reflect.Pointer {
		return false
	}
	c := lookup(e[0], v)
	return c != nil && c.parseInto(data, e[1])
}

type (
	encFn func(c *codec, b []byte, p unsafe.Pointer) ([]byte, bool)
	decFn func(c *codec, l *Lexer, p unsafe.Pointer) bool
)

// A codec is the plan for one type; it is immutable once published.
type codec struct {
	typ    reflect.Type
	kind   reflect.Kind
	size   uintptr
	enc    encFn
	dec    decFn
	fields []field // structs, in declaration order
	elem   *codec  // slices and pointers
	// The itabs of *typ for a text type's interfaces, taken when the
	// plan is built, so a call does no type assertion.
	encTab, decTab unsafe.Pointer
	scratch        sync.Pool // *typ snapshots of non-zero receivers
	slots          sync.Pool // slices: *slot
}

type field struct {
	name      string
	key       string // `,"name":`
	off       uintptr
	omitempty bool
	c         *codec
}

type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// zeroBase backs every empty non-nil slice a parse produces.
var zeroBase [0]uint64

var (
	// codecs maps an interface's type word — T, or *T for a receiver — to
	// T's plan. It is replaced, never written.
	codecs  atomic.Pointer[map[unsafe.Pointer]*codec]
	plansMu sync.Mutex
	plans   = map[reflect.Type]*codec{} // nil: no plan, or one being built
)

func lookup(typ unsafe.Pointer, v any) *codec {
	if m := codecs.Load(); m != nil {
		if c, ok := (*m)[typ]; ok {
			return c
		}
	}
	plansMu.Lock()
	defer plansMu.Unlock()
	t := reflect.TypeOf(v)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	c := plan(t)
	m := map[unsafe.Pointer]*codec{typ: c}
	if old := codecs.Load(); old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	codecs.Store(&m)
	return c
}

// plan returns t's codec, building it on first use. A type met again
// while its own plan is being built is recursive and gets none. The
// caller holds plansMu.
func plan(t reflect.Type) *codec {
	if c, ok := plans[t]; ok {
		return c
	}
	plans[t] = nil
	c := build(t)
	plans[t] = c
	return c
}

// ints holds the integer codecs, signed then unsigned, by size.
var ints = [8]struct {
	enc encFn
	dec decFn
}{
	{encInt[int8], decInt[int8]}, {encInt[int16], decInt[int16]}, {encInt[int32], decInt[int32]}, {encInt[int64], decInt[int64]},
	{encUint[uint8], decUint[uint8]}, {encUint[uint16], decUint[uint16]}, {encUint[uint32], decUint[uint32]}, {encUint[uint64], decUint[uint64]},
}

func build(t reflect.Type) *codec {
	pt := reflect.PointerTo(t)
	c := &codec{typ: t, kind: t.Kind(), size: t.Size()}
	c.scratch.New = func() any { return reflect.New(t).UnsafePointer() }
	marshalText, appendText := reflect.TypeFor[encoding.TextMarshaler](), reflect.TypeFor[encoding.TextAppender]()
	unmarshalText := reflect.TypeFor[encoding.TextUnmarshaler]()
	switch k := c.kind; {
	case t == reflect.TypeFor[json.RawMessage]():
		c.enc, c.dec = encRaw, decRaw
	case k != reflect.Bool && (k < reflect.Int || k > reflect.Uint64) && k != reflect.String && k != reflect.Struct && k != reflect.Slice && k != reflect.Pointer,
		k == reflect.Pointer && t.Elem().Kind() != reflect.Struct,
		k == reflect.Slice && t.Elem().Kind() == reflect.Uint8, // []byte is base64 in encoding/json
		pt.Implements(reflect.TypeFor[json.Marshaler]()) || pt.Implements(reflect.TypeFor[json.Unmarshaler]()),
		t == reflect.TypeFor[json.Number]():
		return nil
	case pt.Implements(marshalText) || pt.Implements(appendText) || pt.Implements(unmarshalText):
		// encoding/json calls a pointer-receiver MarshalText only on
		// addressable values: no plan can know which it will meet.
		if !t.Implements(marshalText) || !t.Implements(appendText) || !pt.Implements(unmarshalText) {
			return nil
		}
		c.enc, c.dec = encText, decText
		c.encTab, c.decTab = itab[encoding.TextAppender](t), itab[encoding.TextUnmarshaler](t)
	case k == reflect.String:
		c.enc, c.dec = encString, decString
	case k == reflect.Bool:
		c.enc, c.dec = encBool, decBool
	case k <= reflect.Uint64:
		i := bits.TrailingZeros64(uint64(c.size))
		if k >= reflect.Uint {
			i += 4
		}
		c.enc, c.dec = ints[i].enc, ints[i].dec
	case k == reflect.Slice:
		if c.enc, c.dec, c.elem = encSlice, decSlice, plan(t.Elem()); c.elem == nil {
			return nil
		}
		c.slots.New = func() any { return newSlot(t) }
	case k == reflect.Pointer:
		if c.enc, c.dec, c.elem = encPtr, decPtr, plan(t.Elem()); c.elem == nil {
			return nil
		}
	default:
		c.enc, c.dec = encStruct, decStruct
		for i := 0; i < t.NumField(); i++ {
			sf := t.Field(i)
			tag := sf.Tag.Get("json")
			if sf.Anonymous {
				return nil
			}
			if !sf.IsExported() || tag == "-" {
				continue
			}
			name, opt, _ := strings.Cut(tag, ",")
			if name == "" {
				name = sf.Name
			}
			// Names encoding/json takes verbatim and writes unescaped.
			plain := strings.Trim(name, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-.") == ""
			if !plain || opt != "" && opt != "omitempty" || c.field([]byte(name)) >= 0 {
				return nil
			}
			fc := plan(sf.Type)
			if fc == nil {
				return nil
			}
			c.fields = append(c.fields, field{name, `,"` + name + `":`, sf.Offset, opt == "omitempty", fc})
		}
	}
	return c
}

// itab returns the itab of *t for interface I.
func itab[I any](t reflect.Type) unsafe.Pointer {
	i := reflect.New(t).Interface().(I)
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&i))[0]
}

// as rebuilds the interface value holding the *T at p from T's itab.
func as[I any](tab, p unsafe.Pointer) (i I) {
	*(*[2]unsafe.Pointer)(unsafe.Pointer(&i)) = [2]unsafe.Pointer{tab, p}
	return i
}

// empty is encoding/json's omitempty test for the kinds a plan admits.
func (c *codec) empty(p unsafe.Pointer) bool {
	switch c.kind {
	case reflect.String:
		// Not through sliceHeader: a string that ends its allocation is
		// shorter than one, and -race's pointer checks reject the cast.
		return len(*(*string)(p)) == 0
	case reflect.Slice:
		return (*sliceHeader)(p).len == 0
	case reflect.Struct:
		return false
	}
	return isZero(p, c.size)
}

func encString(_ *codec, b []byte, p unsafe.Pointer) ([]byte, bool) {
	s := *(*string)(p)
	return AppendJSONString(b, s), JSONSafe(s)
}

func encBool(_ *codec, b []byte, p unsafe.Pointer) ([]byte, bool) {
	return strconv.AppendBool(b, *(*bool)(p)), true
}

func encInt[T int8 | int16 | int32 | int64](_ *codec, b []byte, p unsafe.Pointer) ([]byte, bool) {
	return strconv.AppendInt(b, int64(*(*T)(p)), 10), true
}

func encUint[T uint8 | uint16 | uint32 | uint64](_ *codec, b []byte, p unsafe.Pointer) ([]byte, bool) {
	return strconv.AppendUint(b, uint64(*(*T)(p)), 10), true
}

func encStruct(c *codec, b []byte, p unsafe.Pointer) ([]byte, bool) {
	b = append(b, '{')
	sep := 1 // no comma before the first member written
	for i := range c.fields {
		f := &c.fields[i]
		fp := unsafe.Add(p, f.off)
		if f.omitempty && f.c.empty(fp) {
			continue
		}
		var ok bool
		if b, ok = f.c.enc(f.c, append(b, f.key[sep:]...), fp); !ok {
			return b, false
		}
		sep = 0
	}
	return append(b, '}'), true
}

func encSlice(c *codec, b []byte, p unsafe.Pointer) ([]byte, bool) {
	s := (*sliceHeader)(p)
	if s.data == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i := 0; i < s.len; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = c.elem.enc(c.elem, b, unsafe.Add(s.data, uintptr(i)*c.elem.size)); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

func encPtr(c *codec, b []byte, p unsafe.Pointer) ([]byte, bool) {
	if q := *(*unsafe.Pointer)(p); q != nil {
		return c.elem.enc(c.elem, b, q)
	}
	return append(b, "null"...), true
}

// encRaw writes raw verbatim when encoding/json would: it compacts and
// HTML-escapes a RawMessage and writes an empty one as null.
func encRaw(_ *codec, b []byte, p unsafe.Pointer) ([]byte, bool) {
	raw := *(*json.RawMessage)(p)
	if len(raw) == 0 || string(raw) == "null" || !JSONVerbatim(raw) || !ValidJSON(raw) {
		return b, false
	}
	return append(b, raw...), true
}

func encText(c *codec, b []byte, p unsafe.Pointer) ([]byte, bool) {
	start := len(b) + 1
	b, err := as[encoding.TextAppender](c.encTab, p).AppendText(append(b, '"'))
	return append(b, '"'), err == nil && JSONSafe(b[start:])
}

// parseInto is a top-level parse into the receiver at p: accepted only if
// nothing but whitespace follows the value; on a decline the receiver is
// put back — zeroed, or restored from a pooled snapshot. Slices are parsed
// into fresh backing arrays, never through the receiver's, so restoring a
// header restores the slice.
func (c *codec) parseInto(data []byte, p unsafe.Pointer) bool {
	var saved unsafe.Pointer
	if !isZero(p, c.size) {
		saved = c.scratch.Get().(unsafe.Pointer)
		c.value(saved).Set(c.value(p))
	}
	l := lexers.Get().(*Lexer)
	*l = Lexer{Data: data}
	l.SkipWS()
	ok := c.dec(c, l, p) && l.End()
	l.Data = nil // don't pin the caller's buffer from the pool
	lexers.Put(l)
	switch {
	case ok && saved == nil:
		return true
	case saved == nil:
		c.value(p).SetZero()
		return false
	case !ok:
		c.value(p).Set(c.value(saved))
	}
	c.value(saved).SetZero() // don't pin the receiver's old members
	c.scratch.Put(saved)
	return ok
}

// lexers lends parseInto its cursor: decoders are function values, so a
// local one would be heap-allocated on every call.
var lexers = sync.Pool{New: func() any { return new(Lexer) }}

// value is the typ at p, for the typed copies and clears the garbage
// collector must see.
func (c *codec) value(p unsafe.Pointer) reflect.Value { return reflect.NewAt(c.typ, p).Elem() }

func decString(_ *codec, l *Lexer, p unsafe.Pointer) bool {
	s, ok := l.RawString()
	if ok {
		*(*string)(p) = string(s)
	}
	return ok
}

func decBool(_ *codec, l *Lexer, p unsafe.Pointer) bool {
	*(*bool)(p) = l.consumeLit("true")
	return *(*bool)(p) || l.consumeLit("false")
}

func decInt[T int8 | int16 | int32 | int64](_ *codec, l *Lexer, p unsafe.Pointer) bool {
	v, ok := l.signed(uint(8 * unsafe.Sizeof(T(0))))
	if ok {
		*(*T)(p) = T(v)
	}
	return ok
}

func decUint[T uint8 | uint16 | uint32 | uint64](_ *codec, l *Lexer, p unsafe.Pointer) bool {
	u, ok := l.Uint()
	if !ok || uint64(T(u)) != u {
		return false
	}
	*(*T)(p) = T(u)
	return true
}

func decStruct(c *codec, l *Lexer, p unsafe.Pointer) bool {
	return l.Object(func(key []byte) bool {
		i := c.field(key)
		if i < 0 {
			return false
		}
		f := &c.fields[i]
		return f.c.dec(f.c, l, unsafe.Add(p, f.off))
	})
}

// decPtr allocates the pointee; into a non-nil one encoding/json would
// merge, which a snapshot of the receiver could not undo.
func decPtr(c *codec, l *Lexer, p unsafe.Pointer) bool {
	pp := (*unsafe.Pointer)(p)
	if l.consumeLit("null") {
		*pp = nil
		return true
	}
	if *pp != nil {
		return false
	}
	q := reflect.New(c.elem.typ).UnsafePointer()
	if !c.elem.dec(c.elem, l, q) {
		return false
	}
	*pp = q
	return true
}

// decRaw copies the span out of the read buffer. encoding/json captures a
// null too, but nothing here proves it, so null declines.
func decRaw(_ *codec, l *Lexer, p unsafe.Pointer) bool {
	span, ok := l.Value()
	if !ok || string(span) == "null" {
		return false
	}
	*(*json.RawMessage)(p) = append(json.RawMessage(nil), span...)
	return true
}

func decText(c *codec, l *Lexer, p unsafe.Pointer) bool {
	s, ok := l.RawString()
	return ok && as[encoding.TextUnmarshaler](c.decTab, p).UnmarshalText(s) == nil
}

// field finds the member named exactly key.
func (c *codec) field(key []byte) int {
	for i := range c.fields {
		if string(key) == c.fields[i].name {
			return i
		}
	}
	return -1
}

// decSlice fills a slice the way encoding/json does: element i starts
// from what the old backing array held at i, up to its capacity, so an
// element that omits a member keeps the old one; "[]" is an empty non-nil
// slice and null is nil. The elements are parsed into pooled scratch
// first, so the new backing array is allocated once, at its final length.
func decSlice(c *codec, l *Lexer, p unsafe.Pointer) bool {
	s := (*sliceHeader)(p)
	if l.consumeLit("null") {
		*s = sliceHeader{}
		return true
	}
	sl := c.slots.Get().(*slot)
	if used := s.cap; used > 0 {
		sl.ev.Grow(used)
		sl.elems.len = used
		reflect.Copy(sl.ev, c.value(p).Slice3(0, used, used))
	}
	n := 0
	ok := l.Array(func() bool {
		if n == sl.elems.cap {
			sl.elems.len = n
			sl.ev.Grow(1)
		}
		n++
		return c.elem.dec(c.elem, l, unsafe.Add(sl.elems.data, uintptr(n-1)*c.elem.size))
	})
	sl.elems.len = max(n, s.cap)
	if ok && n == 0 {
		*s = sliceHeader{data: unsafe.Pointer(&zeroBase)}
	} else if ok {
		sl.ov.Grow(sl.elems.len)
		sl.out.len = sl.elems.len
		reflect.Copy(sl.ov, sl.ev)
		*s = sliceHeader{sl.out.data, n, sl.out.cap}
		sl.out = sliceHeader{}
	}
	sl.ev.Clear()
	if sl.elems.len = 0; uintptr(sl.elems.cap)*c.elem.size <= maxPooledScratch {
		c.slots.Put(sl)
	}
	return ok
}

// A slot lends decSlice two []typ headers: elems, which a parse in
// progress fills, and out, where the result is allocated and copied to.
// ev and ov are addressable reflect.Values over them, made once, so a
// parse pays for no reflect.NewAt.
type slot struct {
	elems, out sliceHeader
	ev, ov     reflect.Value
}

func newSlot(t reflect.Type) any {
	sl := new(slot)
	sl.ev = reflect.NewAt(t, unsafe.Pointer(&sl.elems)).Elem()
	sl.ov = reflect.NewAt(t, unsafe.Pointer(&sl.out)).Elem()
	return sl
}

// maxPooledScratch keeps one long list from pinning its size in a pool.
const maxPooledScratch = 64 << 10

// isZero reports whether the n bytes at p are all zero, a word at a time.
func isZero(p unsafe.Pointer, n uintptr) bool {
	var i uintptr
	for ; i+8 <= n; i += 8 {
		if *(*uint64)(unsafe.Add(p, i)) != 0 {
			return false
		}
	}
	for ; i < n; i++ {
		if *(*byte)(unsafe.Add(p, i)) != 0 {
			return false
		}
	}
	return true
}
