package main

import (
	"net/http"
	"testing"
)

// TestServerHasReadHeaderTimeout: a client that never finishes its
// request headers must not hold a connection forever.
func TestServerHasReadHeaderTimeout(t *testing.T) {
	s := newHTTPServer(":0", http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want a positive bound", s.ReadHeaderTimeout)
	}
}
