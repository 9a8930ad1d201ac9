package rpc

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/splaykit/splay/internal/transport"
)

// TestConnErrorsPrintAsBefore pins the text of the lazily formatted
// connection errors to the fmt.Errorf strings they replace, and that the
// cause stays reachable through errors.Is.
func TestConnErrorsPrintAsBefore(t *testing.T) {
	formats := map[uint8]string{
		opDial: "rpc: dial %s: %w",
		opLost: "rpc: connection to %s lost: %w",
		opSend: "rpc: send to %s: %w",
	}
	causes := []error{transport.ErrRefused, ErrTimeout, io.ErrUnexpectedEOF, transport.ErrClosed,
		fmt.Errorf("wrapped: %w", io.ErrUnexpectedEOF)}
	addrs := []transport.Addr{{Host: "n17", Port: 8100}, {Host: "::1", Port: 0}, {}}
	for op, format := range formats {
		for _, cause := range causes {
			for _, to := range addrs {
				err := error(&connError{op: op, to: to, err: cause})
				if got, want := err.Error(), fmt.Errorf(format, to, cause).Error(); got != want {
					t.Errorf("op %d: %q, want %q", op, got, want)
				}
				if !errors.Is(err, cause) || errors.Unwrap(err) != cause {
					t.Errorf("op %d: %v does not unwrap to its cause", op, err)
				}
			}
		}
	}
	err := error(&connError{op: opLost, err: fmt.Errorf("wrapped: %w", io.ErrUnexpectedEOF)})
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Error("errors.Is does not reach a cause wrapped twice")
	}
}

// TestConnErrorsFromCalls checks the errors a caller actually receives: a
// refused dial and a connection lost under a pending call.
func TestConnErrorsFromCalls(t *testing.T) {
	e := newEnv(t, 2)
	var refused, lost error
	e.k.Go(func() {
		s := NewServer(e.ctx(1))
		s.Register("hang", func(Args) (any, error) {
			e.k.Sleep(time.Hour)
			return nil, nil
		})
		s.Start(8000)
	})
	e.k.GoAfter(time.Second, func() {
		c := NewClient(e.ctx(0))
		_, refused = c.Call(transport.Addr{Host: "n1", Port: 9}, "echo", "x")
		_, lost = c.Call(transport.Addr{Host: "n1", Port: 8000}, "hang")
	})
	e.k.GoAfter(2*time.Second, func() { e.nw.Host(1).SetDown(true) })
	e.k.Run()
	if want := "rpc: dial n1:9: " + transport.ErrRefused.Error(); refused == nil || refused.Error() != want || !errors.Is(refused, transport.ErrRefused) {
		t.Errorf("refused dial: %v, want %q", refused, want)
	}
	if want := "rpc: connection to n1:8000 lost: " + transport.ErrClosed.Error(); lost == nil || lost.Error() != want || !errors.Is(lost, transport.ErrClosed) {
		t.Errorf("lost connection: %v, want %q", lost, want)
	}
}
