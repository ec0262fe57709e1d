package telemetry

import (
	"testing"
	"time"
)

// TestServerTimeouts pins the started server's connection timeouts: a
// header deadline and an idle keep-alive bound, and no write deadline,
// which would cut SSE streams and pprof profiles short.
func TestServerTimeouts(t *testing.T) {
	s := NewServer(nil, nil, NewRunTracker())
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Drain(0)
	if s.srv.ReadHeaderTimeout <= 0 || s.srv.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout %v, IdleTimeout %v: want both set", s.srv.ReadHeaderTimeout, s.srv.IdleTimeout)
	}
	if s.srv.WriteTimeout != 0 {
		t.Fatalf("WriteTimeout %v would sever long-lived SSE streams", s.srv.WriteTimeout)
	}
	if s.srv.ReadHeaderTimeout > time.Minute {
		t.Fatalf("ReadHeaderTimeout %v is no bound on a slow client", s.srv.ReadHeaderTimeout)
	}
}
