package obshttp

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dsgl/internal/obs"
)

func get(t *testing.T, h http.Handler, path string) (int, string, http.Header) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body), rec.Header()
}

func TestHandlerMetrics(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("dsgl_http_test_total", "help", obs.L("backend", "scalable")).Add(7)
	h := Handler(r)

	code, body, hdr := get(t, h, "/metrics")
	if code != 200 {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Errorf("content-type %q", hdr.Get("Content-Type"))
	}
	if !strings.Contains(body, `dsgl_http_test_total{backend="scalable"} 7`) {
		t.Errorf("exposition missing counter:\n%s", body)
	}
}

func TestHandlerMetricsz(t *testing.T) {
	r := obs.NewRegistry()
	r.Gauge("dsgl_http_test_depth", "").Set(3)
	code, body, hdr := get(t, Handler(r), "/metricsz")
	if code != 200 {
		t.Fatalf("/metricsz status %d", code)
	}
	if !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Errorf("content-type %q", hdr.Get("Content-Type"))
	}
	var snap []obs.MetricSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(snap) != 1 || snap[0].Name != "dsgl_http_test_depth" || snap[0].Value == nil || *snap[0].Value != 3 {
		t.Errorf("snapshot mismatch: %+v", snap)
	}
}

func TestHandlerNilRegistry(t *testing.T) {
	h := Handler(nil)
	if code, body, _ := get(t, h, "/metrics"); code != 200 || body != "" {
		t.Errorf("/metrics on nil registry: code=%d body=%q", code, body)
	}
	code, body, _ := get(t, h, "/metricsz")
	if code != 200 {
		t.Fatalf("/metricsz status %d", code)
	}
	var snap []obs.MetricSnapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil || len(snap) != 0 {
		t.Errorf("nil registry should serve an empty JSON array, got %q (%v)", body, err)
	}
}

func TestHandlerPprofIndex(t *testing.T) {
	code, body, _ := get(t, Handler(nil), "/debug/pprof/")
	if code != 200 || !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ code=%d", code)
	}
}

func TestServeRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("dsgl_http_serve_total", "").Inc()
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "dsgl_http_serve_total 1") {
		t.Errorf("served exposition missing counter:\n%s", body)
	}
}

// TestServeDropsStalledHeader: a client that sends half a request header
// and stalls is disconnected once readHeaderTimeout passes.
func TestServeDropsStalledHeader(t *testing.T) {
	t.Parallel()
	addr, shutdown, err := Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := conn.SetReadDeadline(start.Add(readHeaderTimeout + 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection not closed by the server: %v", err)
	}
	if took := time.Since(start); took < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, before the header timeout", took)
	}
}

// TestServerTimeouts: the observability server closes idle keep-alive
// connections and stalled headers, and sets no read or write timeout (a
// CPU profile or trace streams for as long as it was asked to).
func TestServerTimeouts(t *testing.T) {
	h := newServer(http.NotFoundHandler())
	if h.IdleTimeout != idleTimeout || h.ReadHeaderTimeout != readHeaderTimeout {
		t.Fatalf("idle %v header %v, want %v and %v", h.IdleTimeout, h.ReadHeaderTimeout, idleTimeout, readHeaderTimeout)
	}
	if h.ReadTimeout != 0 || h.WriteTimeout != 0 {
		t.Fatalf("read %v write %v, want both unset", h.ReadTimeout, h.WriteTimeout)
	}
}
