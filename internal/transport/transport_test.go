package transport

import (
	"strconv"
	"testing"
)

func TestAddrStringBracketsIPv6(t *testing.T) {
	cases := []struct {
		addr Addr
		want string
	}{
		{Addr{Host: "n3", Port: 5555}, "n3:5555"},
		{Addr{Host: "10.0.0.1", Port: 80}, "10.0.0.1:80"},
		{Addr{Host: "::1", Port: 5555}, "[::1]:5555"},
		{Addr{Host: "2001:db8::42", Port: 8080}, "[2001:db8::42]:8080"},
		{Addr{Host: "", Port: 5555}, ":5555"},
	}
	for _, c := range cases {
		if got := c.addr.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.addr, got, c.want)
		}
	}
}

func TestParseAddrRoundTrip(t *testing.T) {
	for _, a := range []Addr{
		{Host: "n3", Port: 5555},
		{Host: "10.0.0.1", Port: 80},
		{Host: "::1", Port: 5555},
		{Host: "2001:db8::42", Port: 65535},
		{Host: "fe80::1", Port: 1},
	} {
		back, err := ParseAddr(a.String())
		if err != nil {
			t.Errorf("ParseAddr(%q): %v", a.String(), err)
			continue
		}
		if back != a {
			t.Errorf("round trip %q: got %+v, want %+v", a.String(), back, a)
		}
	}
}

func TestParseAddrRejects(t *testing.T) {
	for _, s := range []string{
		"",            // empty
		"host",        // no port
		"host:",       // empty port
		"host:x",      // non-numeric port
		"host:70000",  // out of range
		"host:-1",     // negative
		"::1:5555",    // unbracketed IPv6 must not be mis-split
		"[::1]:x",     // bracketed, bad port
		"a:b:c:5555",  // ambiguous colons
		"[::1]",       // brackets, no port
		"[::1]:70000", // bracketed, out of range
	} {
		if a, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) = %+v, want error", s, a)
		}
	}
}

// TestAddrKey: equal addresses share a key, whatever string backs the
// host; the addresses a view holds (hosts n0…n999 on a few ports) do not
// collide.
func TestAddrKey(t *testing.T) {
	a := Addr{Host: "n12", Port: 8000}
	b := Addr{Host: string([]byte("n12")), Port: 8000}
	if a.Key() != b.Key() {
		t.Fatalf("equal addresses %v, %v have keys %x, %x", a, b, a.Key(), b.Key())
	}
	seen := map[uint64]Addr{}
	for i := range 1000 {
		for _, port := range []int{0, 8000, 8001, 20001} {
			x := Addr{Host: "n" + strconv.Itoa(i), Port: port}
			if y, dup := seen[x.Key()]; dup {
				t.Fatalf("%v and %v share key %x", x, y, x.Key())
			}
			seen[x.Key()] = x
		}
	}
}
