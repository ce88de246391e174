package main

import (
	"context"
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the listener's connection timeouts: a header
// timeout against slow-header clients and an idle timeout for keep-alive
// connections, with WriteTimeout left unset so long streams are not cut.
func TestHTTPServerTimeouts(t *testing.T) {
	ctx := context.Background()
	s := newHTTPServer(ctx, ":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", s.ReadHeaderTimeout)
	}
	if s.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (it would cut /v1/stream)", s.WriteTimeout)
	}
	if got := s.BaseContext(nil); got != ctx {
		t.Error("BaseContext does not return the request base context")
	}
}
