package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"torch2chip/internal/engine"
	"torch2chip/internal/export"
	"torch2chip/internal/tensor"
	"torch2chip/internal/trace"
)

// HandlerOptions tune the HTTP layer.
type HandlerOptions struct {
	// MaxBodyBytes bounds request bodies (predict payloads and
	// checkpoint uploads). Default 1 GiB.
	MaxBodyBytes int64
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// serving mux (off by default: profiles expose internals, so the
	// flag is an explicit opt-in).
	EnablePprof bool
}

func (o HandlerOptions) withDefaults() HandlerOptions {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 1 << 30
	}
	return o
}

// Handler is the HTTP/JSON front end over a Registry:
//
//	POST /v1/models/{name}:predict   run inference (single or batched tensor)
//	POST /v1/models/{name}           load / hot-reload a checkpoint
//	DELETE /v1/models/{name}         retire a model
//	GET  /v1/models/{name}/explain   per-instruction record: path, modeled and traced ns
//	GET  /v1/models                  list models and serving stats
//	GET  /healthz                    liveness probe
//	GET  /metrics                    Prometheus text metrics
//	GET  /debug/trace?model={name}   Chrome trace-event JSON span dump
//	GET  /debug/pprof/...            stdlib profiles (EnablePprof only)
type Handler struct {
	reg      *Registry
	metrics  *Metrics
	opts     HandlerOptions
	mux      *http.ServeMux
	traceSeq atomic.Uint64 // request trace-id allocator
}

// NewHandler wires the API routes over reg.
func NewHandler(reg *Registry, opts HandlerOptions) *Handler {
	h := &Handler{reg: reg, metrics: NewMetrics(), opts: opts.withDefaults(), mux: http.NewServeMux()}
	h.mux.HandleFunc("/healthz", h.health)
	h.mux.HandleFunc("/metrics", h.serveMetrics)
	h.mux.HandleFunc("/v1/models", h.list)
	h.mux.HandleFunc("/v1/models/", h.models)
	h.mux.HandleFunc("/debug/trace", h.debugTrace)
	if h.opts.EnablePprof {
		h.mux.HandleFunc("/debug/pprof/", pprof.Index)
		h.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		h.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		h.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		h.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return h
}

// Metrics exposes the handler's metrics store (the bench and tests read
// observed counters through the /metrics endpoint instead).
func (h *Handler) Metrics() *Metrics { return h.metrics }

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// Prediction is one sample's result. Cached marks responses served from
// the content-addressed inference cache — bit-identical to a recompute,
// flagged only so operators can attribute latency.
type Prediction struct {
	Class   int       `json:"class"`
	Logits  []float32 `json:"logits"`
	Version int       `json:"version"`
	Cached  bool      `json:"cached,omitempty"`
}

// PredictResponse is the predict endpoint's body.
type PredictResponse struct {
	Model       string       `json:"model"`
	Predictions []Prediction `json:"predictions"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// statusFor maps serving errors to HTTP codes: overload sheds as 429,
// expired deadlines as 504, unknown models as 404.
func statusFor(err error) (int, string) {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound, ResultInvalid
	case errors.Is(err, engine.ErrQueueFull):
		return http.StatusTooManyRequests, ResultRejected
	case errors.Is(err, engine.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, ResultExpired
	case errors.Is(err, engine.ErrShapeMismatch):
		// A valid-at-parse-time request can still mis-shape if a hot
		// reload changed the model's input shape mid-request.
		return http.StatusBadRequest, ResultInvalid
	default:
		return http.StatusInternalServerError, ResultError
	}
}

func (h *Handler) health(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "models": len(h.reg.Models())})
}

func (h *Handler) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	h.metrics.WriteText(w, h.reg)
}

func (h *Handler) list(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	infos := h.reg.Models()
	if infos == nil {
		infos = []ModelInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": infos})
}

// models dispatches /v1/models/{name}, /v1/models/{name}:predict and
// /v1/models/{name}/explain.
func (h *Handler) models(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/models/")
	if name, ok := strings.CutSuffix(rest, "/explain"); ok && name != "" && !strings.Contains(name, "/") {
		h.explain(w, r, name)
		return
	}
	if rest == "" || strings.Contains(rest, "/") {
		writeError(w, http.StatusNotFound, "unknown path %q", r.URL.Path)
		return
	}
	if name, ok := strings.CutSuffix(rest, ":predict"); ok {
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		h.predict(w, r, name)
		return
	}
	switch r.Method {
	case http.MethodPost:
		h.load(w, r, rest)
	case http.MethodDelete:
		if err := h.reg.Remove(rest); err != nil {
			writeError(w, http.StatusNotFound, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"removed": rest})
	default:
		writeError(w, http.StatusMethodNotAllowed, "use POST or DELETE")
	}
}

// explain replies with name's per-instruction record.
func (h *Handler) explain(w http.ResponseWriter, r *http.Request, name string) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	ex, err := h.reg.Explain(name)
	if err != nil {
		code, _ := statusFor(err)
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ex)
}

// httpLane is the HTTP layer's span lane. Engine workers use their
// worker index and the batcher uses lane 999, so HTTP spans start at
// 1000: the request span on httpLane, its decode span and sequential
// wave spans on the next lane.
const httpLane = 1000

// traceID resolves the request's trace id: an X-Trace-Id header (hex,
// non-zero) propagates an upstream id, otherwise a fresh one is drawn
// from the handler's counter.
func (h *Handler) traceID(r *http.Request) uint64 {
	if v := r.Header.Get("X-Trace-Id"); v != "" {
		if id, err := strconv.ParseUint(v, 16, 64); err == nil && id != 0 {
			return id
		}
	}
	return h.traceSeq.Add(1)
}

// resultCode compresses a result label into a span argument.
func resultCode(result string) int64 {
	switch result {
	case ResultOK:
		return 0
	case ResultRejected:
		return 1
	case ResultExpired:
		return 2
	case ResultInvalid:
		return 3
	default:
		return 4
	}
}

// predict parses a single or batched input tensor, serves its samples
// in waves that each enter the micro-batcher as one group, and replies
// with per-sample logits and argmax classes.
func (h *Handler) predict(w http.ResponseWriter, r *http.Request, name string) {
	start := time.Now()
	sample, err := h.reg.SampleShape(name)
	if err != nil {
		h.metrics.ObserveUnknown()
		writeError(w, http.StatusNotFound, "model %q not loaded", name)
		return
	}

	// When the model's tracer is armed and this request is sampled,
	// record a request span, a decode span for the body, one fan-out
	// span per wave and an encode span for the reply, all carrying one
	// trace id that the engine stitches into its queue-wait spans. The
	// untraced path pays one nil-ring branch per span.
	ring := h.reg.TraceRing(name)
	tracer := ring.Tracer()
	traced := ring.Active() && tracer.SampleRequest()
	var tid uint64
	var reqStart int64
	var nmRequest, nmDecode, nmFanout, nmEncode uint32
	if traced {
		tid = h.traceID(r)
		reqStart = ring.Now()
		nmRequest = tracer.Intern("request")
		nmDecode = tracer.Intern("decode")
		nmFanout = tracer.Intern("fanout")
		nmEncode = tracer.Intern("encode")
		w.Header().Set("X-Trace-Id", strconv.FormatUint(tid, 16))
	}
	endSpan := func(samples int, result string) {
		if traced {
			now := ring.Now()
			ring.Record(trace.Span{Start: reqStart, Dur: now - reqStart,
				Name: nmRequest, Kind: trace.KindRequest, TID: httpLane,
				ID: tid, A0: int64(samples), A1: resultCode(result)})
		}
	}
	// Validate scheduling parameters before reading the body: a request
	// with a malformed deadline or priority is a client error (400)
	// regardless of payload, and rejecting it here skips the tensor parse.
	deadline, err := h.deadline(r)
	if err != nil {
		h.metrics.Observe(name, ResultInvalid, 0)
		endSpan(0, ResultInvalid)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	class, err := h.priority(r)
	if err != nil {
		h.metrics.Observe(name, ResultInvalid, 0)
		endSpan(0, ResultInvalid)
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var dec0 int64
	if traced {
		dec0 = ring.Now()
	}
	xs, code, err := h.readSamples(w, r, sample)
	if traced {
		ring.Record(trace.Span{Start: dec0, Dur: ring.Now() - dec0,
			Name: nmDecode, Kind: trace.KindDecode, TID: httpLane + 1,
			ID: tid, A0: int64(len(xs))})
	}
	if err != nil {
		h.metrics.Observe(name, ResultInvalid, 0)
		endSpan(0, ResultInvalid)
		writeError(w, code, "%v", err)
		return
	}
	// A deadline that expired while the body was read (or arrived
	// already dead) is rejected before any fan-out: no queue slots, no
	// execution for work that cannot meet its SLO.
	if !deadline.IsZero() && time.Now().After(deadline) {
		h.metrics.Observe(name, ResultExpired, time.Since(start))
		endSpan(len(xs), ResultExpired)
		writeError(w, http.StatusGatewayTimeout, "%v", engine.ErrDeadlineExceeded)
		return
	}

	// Serve the samples in waves of at most the queue capacity, each one
	// PredictBatch call: its cache misses are enqueued as one group, so
	// on an idle server a wave of up to MaxBatch misses runs as one batch.
	// Waves keep any batch size servable while still shedding against
	// concurrent traffic.
	width := h.reg.queueSize
	preds := make([]Prediction, len(xs))
	for lo := 0; lo < len(xs); lo += width {
		hi := min(lo+width, len(xs))
		var t0 int64
		if traced {
			t0 = ring.Now()
		}
		res, err := h.reg.PredictBatch(name, xs[lo:hi], deadline, class, tid)
		code, result := http.StatusOK, ResultOK
		if err != nil {
			code, result = statusFor(err)
		}
		if traced {
			ring.Record(trace.Span{Start: t0, Dur: ring.Now() - t0,
				Name: nmFanout, Kind: trace.KindFanout, TID: httpLane + 1,
				ID: tid, A0: int64(lo), A1: resultCode(result)})
		}
		if err != nil {
			h.metrics.Observe(name, result, time.Since(start))
			endSpan(len(xs), result)
			writeError(w, code, "%v", err)
			return
		}
		for i, r := range res {
			preds[lo+i] = Prediction{Class: r.Y.Argmax(), Logits: r.Y.Data, Version: r.Version, Cached: r.Cached}
		}
	}
	h.metrics.Observe(name, ResultOK, time.Since(start))
	resp := PredictResponse{Model: name, Predictions: preds}
	if !traced {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	// The reply is encoded inside the request span, after the last wave.
	enc0 := ring.Now()
	writeJSON(w, http.StatusOK, resp)
	ring.Record(trace.Span{Start: enc0, Dur: ring.Now() - enc0,
		Name: nmEncode, Kind: trace.KindEncode, TID: httpLane + 1,
		ID: tid, A0: int64(len(xs))})
	endSpan(len(xs), ResultOK)
}

// readSamples reads a predict body and splits it into samples of the
// model's sample shape. On failure it also returns the status to reply
// with: 413 for a body past MaxBodyBytes, 400 for anything else.
func (h *Handler) readSamples(w http.ResponseWriter, r *http.Request, sample []int) ([]*tensor.Tensor, int, error) {
	in, err := export.ReadInputJSON(http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes))
	if err != nil {
		return nil, bodyStatus(err), fmt.Errorf("bad input tensor: %w", err)
	}
	xs, err := in.Samples(sample)
	return xs, http.StatusBadRequest, err
}

// bodyStatus is the status for a request body that failed to parse.
func bodyStatus(err error) int {
	if errors.As(err, new(*http.MaxBytesError)) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// debugTrace dumps ?model=X's recorded spans as Chrome trace-event
// JSON (loadable in Perfetto / chrome://tracing). The dump is a
// flight-recorder snapshot: the most recent spans still intact in the
// model's rings, sorted by start time.
func (h *Handler) debugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	name := r.URL.Query().Get("model")
	if name == "" {
		writeError(w, http.StatusBadRequest, "missing ?model= parameter")
		return
	}
	t := h.reg.Tracer(name)
	if t == nil {
		writeError(w, http.StatusNotFound,
			"no trace for model %q (model not loaded, or serving started without tracing)", name)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = trace.WriteChrome(w, t, name, t.Snapshot())
}

// maxDeadlineMS caps ?deadline_ms= so the millisecond→Duration
// conversion cannot overflow int64 nanoseconds (2^40 ms ≈ 35 years —
// anything larger means "no deadline" in practice anyway).
const maxDeadlineMS = 1 << 40

// deadline resolves the request deadline: ?deadline_ms= overrides the
// registry default. Unparsable, zero, or negative values are client
// errors the predict handler maps to 400.
func (h *Handler) deadline(r *http.Request) (time.Time, error) {
	q := r.URL.Query().Get("deadline_ms")
	if q == "" {
		if d := h.reg.opts.DefaultDeadline; d > 0 {
			return time.Now().Add(d), nil
		}
		return time.Time{}, nil
	}
	ms, err := strconv.ParseInt(q, 10, 64)
	if err != nil || ms <= 0 {
		return time.Time{}, fmt.Errorf("bad deadline_ms %q (want a positive integer)", q)
	}
	if ms > maxDeadlineMS {
		ms = maxDeadlineMS
	}
	return time.Now().Add(time.Duration(ms) * time.Millisecond), nil
}

// priority resolves the request's priority class from ?priority= (the
// X-Priority header is the fallback): high, normal (the default), or
// low. Unknown names are client errors mapped to 400.
func (h *Handler) priority(r *http.Request) (engine.PriorityClass, error) {
	q := r.URL.Query().Get("priority")
	if q == "" {
		q = r.Header.Get("X-Priority")
	}
	return engine.ParsePriority(q)
}

// load reads a checkpoint body and installs it under name (hot reload
// when the name already serves). ?shape=C,H,W overrides the sample
// shape for checkpoints that predate the recorded in_shape field.
func (h *Handler) load(w http.ResponseWriter, r *http.Request, name string) {
	ck, err := export.ReadJSON(http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes))
	if err != nil {
		writeError(w, bodyStatus(err), "bad checkpoint: %v", err)
		return
	}
	var sample []int
	if q := r.URL.Query().Get("shape"); q != "" {
		if sample, err = ParseShape(q); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	info, err := h.reg.Load(name, ck, sample)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, ErrClosed) {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, "%v", err)
		return
	}
	code := http.StatusOK
	if info.Version == 1 {
		code = http.StatusCreated
	}
	writeJSON(w, code, info)
}

// ParseShape parses a comma-separated shape like "3,32,32".
func ParseShape(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("serve: bad shape %q", s)
		}
		out = append(out, v)
	}
	return out, nil
}
