package llenc

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestInternSharesShortStrings: a short string a plan decodes equals
// encoding/json's value and, decoded again, is the same string; a longer
// one is a fresh conversion each time.
func TestInternSharesShortStrings(t *testing.T) {
	type ref struct {
		Host string `json:"host"`
	}
	long := strings.Repeat("h", internMaxLen+1)
	for _, host := range []string{"n123", "é", strings.Repeat("h", internMaxLen), long, ""} {
		src := []byte(`{"host":"` + host + `"}`)
		var a, b, want ref
		if !ParseDerived(src, &a) || !ParseDerived(src, &b) {
			t.Fatalf("%q declined", host)
		}
		if err := json.Unmarshal(src, &want); err != nil || a != want || b != want {
			t.Fatalf("%q: decoded %q and %q, encoding/json %q (%v)", host, a.Host, b.Host, want.Host, err)
		}
		shared := unsafe.StringData(a.Host) == unsafe.StringData(b.Host)
		if wantShared := host != long; host != "" && shared != wantShared {
			t.Errorf("%q: shared %v, want %v", host, shared, wantShared)
		}
	}
}

// TestInternAcrossThreads has goroutines decode colliding and equal
// strings at once, as both kernel partitions' threads do: under -race
// it checks the table's slots are published safely, and every decode
// returns its own value whatever a slot holds.
func TestInternAcrossThreads(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 2000 {
				s := "n" + string(rune('0'+(i+g)%10)) + strings.Repeat("x", i%7)
				if got := intern([]byte(s)); got != s {
					t.Errorf("intern(%q) = %q", s, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
