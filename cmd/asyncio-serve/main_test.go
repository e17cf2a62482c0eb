package main

import (
	"net/http"
	"testing"
)

func TestNewHTTPServerLimits(t *testing.T) {
	h := http.NotFoundHandler()
	srv := newHTTPServer(":0", h)
	if srv.Addr != ":0" || srv.Handler == nil {
		t.Fatalf("server = %+v, want addr :0 and the given handler", srv)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	if srv.IdleTimeout != idleTimeout || srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", srv.IdleTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want unset: event streams outlive any fixed bound", srv.WriteTimeout)
	}
}
