package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

// NewMux builds the daemon's HTTP surface on a Go 1.22 pattern mux:
//
//	POST   /v1/jobs             submit (202, 400, 429 queue full, 503 draining)
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        status and results (404)
//	DELETE /v1/jobs/{id}        cancel (404, 409 already finished)
//	GET    /v1/jobs/{id}/events SSE progress stream (supports Last-Event-ID)
//	GET    /v1/jobs/{id}/trace  Chrome trace-event JSON (404 if not traced)
//	GET    /v1/jobs/{id}/flight convergence flight-recorder journal (JSON)
//	GET    /v1/fleet/metrics    merged fleet exposition, node-labeled (404
//	                            unless this server is a coordinator)
//	GET    /healthz             200 ok / 503 draining
//	GET    /metrics             Prometheus text exposition (?format=dump for
//	                            the machine-readable registry dump that
//	                            fleet coordinators scrape)
func NewMux(m *Manager) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		handleSubmit(m, w, r)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"jobs": m.List()})
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		handleEvents(m, w, r)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/trace", func(w http.ResponseWriter, r *http.Request) {
		tr, err := m.Trace(r.PathValue("id"))
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = tr.WriteJSON(w)
	})
	mux.HandleFunc("GET /v1/jobs/{id}/flight", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		samples, err := m.Flight(id)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"job":     id,
			"samples": samples,
		})
	})
	mux.HandleFunc("GET /v1/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		if m.cfg.Coordinator == nil {
			writeError(w, ErrNoFleet)
			return
		}
		w.Header().Set("Content-Type", obs.ContentType)
		if err := m.WriteFleetMetrics(r.Context(), w); err != nil {
			m.logf("service: write /v1/fleet/metrics: %v", err)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		if m.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "dump" {
			writeJSON(w, http.StatusOK, m.MetricsDump())
			return
		}
		w.Header().Set("Content-Type", obs.ContentType)
		if err := m.WritePrometheus(w); err != nil {
			m.logf("service: write /metrics: %v", err)
		}
	})
	return mux
}

const maxBodyBytes = 4 << 20

func handleSubmit(m *Manager, w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return
	}
	st, err := m.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+st.ID)
	writeJSON(w, http.StatusAccepted, st)
}

// handleEvents streams a job's progress as server-sent events. Each event
// carries its sequence number as the SSE id, so a reconnecting client sends
// Last-Event-ID (or ?from=N) and the full history after that point is
// replayed before live events.
func handleEvents(m *Manager, w http.ResponseWriter, r *http.Request) {
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad from parameter"})
			return
		}
		from = n
	} else if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n >= 0 {
			from = n
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	ch, cancel, err := m.Subscribe(r.PathValue("id"), from)
	if err != nil {
		writeError(w, err)
		return
	}
	defer cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-ch:
			if !open {
				return // job reached a terminal state
			}
			data, jerr := json.Marshal(ev)
			if jerr != nil {
				return
			}
			if _, werr := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data); werr != nil {
				return
			}
			flusher.Flush()
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps manager sentinels to HTTP statuses; anything else the
// manager returns is a validation failure, i.e. the client's fault.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound), errors.Is(err, ErrNoTrace), errors.Is(err, ErrNoFleet):
		code = http.StatusNotFound
	case errors.Is(err, ErrQueueFull):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrFinished):
		code = http.StatusConflict
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
