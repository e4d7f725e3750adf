// Package receiver accepts traces into the noised daemon.
//
// Two transports feed the same Ingestor (the router): an HTTP API
// (POST a whole trace file per request) and a native length-prefixed
// streaming protocol over TCP (docs/DAEMON.md describes the framing).
// Receivers own listener lifecycle — bind in the constructor so the
// address is known, Serve until shut down, drain in-flight work on
// Shutdown — and map the router's typed error families onto wire
// answers (HTTP status codes, native ERR codes).
package receiver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"osnoise/internal/daemon/router"
	"osnoise/internal/daemon/tenant"
	"osnoise/internal/noise"
	"osnoise/internal/trace"
)

// Ingestor routes one decoded stream to a tenant — implemented by
// *router.Router; tests substitute fakes.
type Ingestor interface {
	// Ingest analyses the decoder's trace under the named tenant.
	Ingest(ctx context.Context, tenant string, d *trace.Decoder) (router.Result, error)
}

// maxTenantLen bounds tenant identifiers on every transport.
const maxTenantLen = 128

// ValidTenant reports whether s is a legal tenant identifier:
// 1–128 characters from [A-Za-z0-9._-].
func ValidTenant(s string) bool {
	if len(s) == 0 || len(s) > maxTenantLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// statusOf maps an ingest error onto an HTTP status code: 429 for
// evicted tenants, 400 for bad input, 503 for cancellation (shutdown
// or client disconnect), 500 otherwise.
func statusOf(err error) int {
	switch {
	case errors.Is(err, tenant.ErrEvicted):
		return http.StatusTooManyRequests
	case trace.IsInputError(err):
		return http.StatusBadRequest
	case errors.Is(err, noise.ErrCancelled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// ingestResponse is the JSON body of an ingest answer.
type ingestResponse struct {
	// Result echoes the router's per-stream answer.
	router.Result
	// Error carries the failure message on non-2xx answers.
	Error string `json:"error,omitempty"`
}

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// safeIngest runs ing.Ingest and turns a panic inside it into an error,
// logged with the tenant and the panic value, so a trace that trips an
// engine bug costs that trace and not the daemon. A panic on one of the
// engine's own worker goroutines cannot be recovered here and still
// stops the process.
func safeIngest(ctx context.Context, ing Ingestor, id string, d *trace.Decoder) (res router.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			log.Printf("receiver: tenant %s: ingest panicked: %v", id, v)
			res, err = router.Result{Tenant: id}, fmt.Errorf("receiver: ingest panicked: %v", v)
		}
	}()
	return ing.Ingest(ctx, id, d)
}

// IngestHandler serves POST /v1/ingest?tenant=<id>: the request body is
// one LTTNOISE trace in the fixed format (a compressed LTTNOISZ body is
// answered 400), analysed synchronously; the answer is the stream's
// Result as JSON.
func IngestHandler(ing Ingestor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, ingestResponse{Error: "POST only"})
			return
		}
		id := r.URL.Query().Get("tenant")
		if !ValidTenant(id) {
			writeJSON(w, http.StatusBadRequest, ingestResponse{Error: "missing or malformed tenant parameter"})
			return
		}
		d, err := trace.NewDecoder(r.Body)
		if err != nil {
			writeJSON(w, statusOf(err), ingestResponse{Result: router.Result{Tenant: id}, Error: err.Error()})
			return
		}
		res, err := safeIngest(r.Context(), ing, id, d)
		if err != nil {
			writeJSON(w, statusOf(err), ingestResponse{Result: res, Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, ingestResponse{Result: res})
	})
}

// NewMux assembles the daemon's HTTP surface: /v1/ingest, /v1/tenants,
// /healthz and, when metrics is non-nil, /metrics.
func NewMux(ing Ingestor, metrics http.Handler, tenants func() []tenant.Status) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/v1/ingest", IngestHandler(ing))
	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		ts := tenants()
		if ts == nil {
			ts = []tenant.Status{}
		}
		writeJSON(w, http.StatusOK, ts)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if metrics != nil {
		mux.Handle("/metrics", metrics)
	}
	return mux
}

// HTTP is the daemon's HTTP receiver: a bound listener plus the server
// that drains it.
type HTTP struct {
	srv *http.Server
	ln  net.Listener
}

// NewHTTP binds addr and returns a receiver serving h on it.
func NewHTTP(addr string, h http.Handler) (*HTTP, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("receiver http: %w", err)
	}
	return &HTTP{
		srv: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		ln:  ln,
	}, nil
}

// Addr returns the bound listen address.
func (h *HTTP) Addr() string { return h.ln.Addr().String() }

// Serve blocks serving requests until Shutdown; a graceful shutdown
// returns nil.
func (h *HTTP) Serve() error {
	if err := h.srv.Serve(h.ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("receiver http: %w", err)
	}
	return nil
}

// Shutdown stops accepting and waits for in-flight requests until ctx
// expires, then force-closes the remaining connections.
func (h *HTTP) Shutdown(ctx context.Context) error {
	if err := h.srv.Shutdown(ctx); err != nil {
		_ = h.srv.Close()
		return fmt.Errorf("receiver http: drain: %w", err)
	}
	return nil
}
