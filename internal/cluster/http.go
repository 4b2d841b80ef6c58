package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/obs"
)

const maxBodyBytes = 16 << 20 // snapshots of large jobs ride in heartbeats

// Mount registers the cluster RPC surface on mux (Go 1.22 patterns):
//
//	POST /v1/shards/claim                    claim the next pending shard (204 when idle)
//	POST /v1/shards/{job}/{shard}/heartbeat  renew lease, optionally upload a snapshot (410 lease gone)
//	POST /v1/shards/{job}/{shard}/result     deliver the shard result or error (410 lease gone)
//
// The surface is mounted alongside the service mux in cmd/iseserve when
// -coordinator is set, so one listener serves both jobs and the fleet.
func Mount(mux *http.ServeMux, c *Coordinator) {
	mux.HandleFunc("POST /v1/shards/claim", func(w http.ResponseWriter, r *http.Request) {
		c.stampClock(w)
		var req claimRequest
		if !decodeBody(w, r, &req) {
			return
		}
		env, tc, ok := c.Claim(req)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		// The claim response carries the distributed trace context as
		// headers; the worker echoes them on the shard's heartbeat and
		// result RPCs.
		tc.Inject(w.Header())
		writeJSON(w, http.StatusOK, env)
	})
	mux.HandleFunc("POST /v1/shards/{job}/{shard}/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		c.stampClock(w)
		job, shard, ok := shardPath(w, r)
		if !ok {
			return
		}
		var req heartbeatRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Heartbeat(job, shard, req); err != nil {
			writeRPCError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
	mux.HandleFunc("POST /v1/shards/{job}/{shard}/result", func(w http.ResponseWriter, r *http.Request) {
		c.stampClock(w)
		job, shard, ok := shardPath(w, r)
		if !ok {
			return
		}
		var req resultRequest
		if !decodeBody(w, r, &req) {
			return
		}
		if err := c.Result(job, shard, req, obs.TraceContextFromHeader(r.Header)); err != nil {
			writeRPCError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
	})
}

// stampClock timestamps an RPC response with the coordinator's clock
// (Options.Now, so fake-clock tests stay coherent) so workers can estimate
// their offset (obs.ClockSync). Stamped on every shard RPC — the
// worker→coordinator RPCs are exactly the exchanges whose round trips
// bound the estimate.
func (c *Coordinator) stampClock(w http.ResponseWriter) {
	obs.StampServerTime(w.Header(), c.opts.Now())
}

func shardPath(w http.ResponseWriter, r *http.Request) (string, int, bool) {
	job := r.PathValue("job")
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad shard index"})
		return "", 0, false
	}
	return job, shard, true
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request body: " + err.Error()})
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeRPCError maps ErrGone to 410 (the worker should abandon the shard);
// anything else is the caller's fault.
func writeRPCError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	if errors.Is(err, ErrGone) {
		code = http.StatusGone
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// errHTTP renders a non-2xx RPC response as an error, preserving ErrGone.
func errHTTP(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if resp.StatusCode == http.StatusGone {
		if body.Error != "" {
			return fmt.Errorf("%w: %s", ErrGone, body.Error)
		}
		return ErrGone
	}
	if body.Error != "" {
		return fmt.Errorf("cluster: rpc %s: %s", resp.Status, body.Error)
	}
	return fmt.Errorf("cluster: rpc %s", resp.Status)
}
