package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"
)

// The layer pass sends a workload's next requests, one at a time,
// through progressively deeper public entry points. The difference
// between two adjacent probes is the self time of the layer between
// them.
const (
	pPost     = iota // full POST over loopback TCP
	pHandler         // Handler.ServeHTTP on an in-memory recorder
	pDecode          // export.ReadInputJSON + InputTensor.Samples
	pRegistry        // serve.Registry.Predict, concurrently per sample
	pServer          // engine.Server.Infer, concurrently per sample
	pExecute         // engine.Executor.ExecuteCodes at the request's batch
	pInterp          // fuse.IntModel.Forward
	numProbes
)

var probeNames = [numProbes]string{
	"P0 POST over loopback", "P1 Handler.ServeHTTP", "P2 ReadInputJSON+Samples",
	"P3 Registry.Predict", "P4 engine.Server.Infer", "P5 Executor.ExecuteCodes",
	"P6 IntModel.Forward",
}

// layerTimes is what the layer pass measured. Every time is in ms at
// reference speed (see reference.go): the median over the calls of all
// repetitions.
type layerTimes struct {
	probe       [numProbes]float64
	predictSelf float64 // Registry.Predict less the engine.Server time of the samples it did not answer from the cache
	bind        float64 // engine.NewExecutor on a freshly parsed program
	reps        int
	requests    int // sent through the probes that reach the cache
	cached      int // samples of those the cache answered
}

// layerPass repeats the probes until budget is spent, within the
// repetition counts of sz.
func layerPass(t *target, w workload, sz sizes, tmpl *bodyTemplate, keys func() int, sp *speedometer, spans *spanLog, budget time.Duration) (layerTimes, error) {
	var lt layerTimes
	before := sp.tick()
	pr, err := t.dep.newProbes(w.Batch)
	if err != nil {
		return lt, err
	}
	defer pr.close()
	sp.tick()
	lt.bind = ms(scaled(pr.bind, sp.scale(before)))

	url := t.predictURL(w)
	path := url[len(t.base):]
	deadline := time.Duration(w.DeadlineMS) * time.Millisecond
	bodies := func() [][]byte {
		out := make([][]byte, sz.layerRequests)
		for i := range out {
			out[i] = append([]byte(nil), tmpl.base...)
			for s := 0; s < w.Batch; s++ {
				tmpl.patch(out[i], s, keys())
			}
		}
		return out
	}
	pass := spans.open("layer pass "+w.Name, -1)
	defer spans.end(pass)
	// calls holds how long every call of a probe took, and self how long
	// Registry.Predict took beyond the engine.
	var calls [numProbes][]time.Duration
	var self []time.Duration

	start := time.Now()
	for lt.reps < sz.layerMaxReps && (lt.reps < sz.layerMinReps || time.Since(start) < budget) {
		rep := spans.open(fmt.Sprintf("repetition %d", lt.reps), pass)
		// timed runs f on the first n requests, a reference slice before
		// and after each, and returns how long each call took.
		timed := func(probe, n int, f func(i int) error) ([]time.Duration, error) {
			ids := spans.reserveIDs(n)
			out := make([]time.Duration, n)
			before := sp.tick()
			for i := range out {
				t0 := time.Now()
				err := f(i)
				t1 := time.Now()
				after := sp.tick()
				if err != nil {
					return nil, fmt.Errorf("%s: %w", probeNames[probe], err)
				}
				out[i] = scaled(t1.Sub(t0), sp.scale(before))
				before = after
				spans.add(span{Name: probeNames[probe], Start: t0, End: t1, Parent: rep, Req: ids + i})
			}
			return out, nil
		}
		countCached := func(status int, raw []byte) error {
			rep, err := parseReply(status, raw, w.Batch)
			if err != nil {
				return err
			}
			lt.requests++
			lt.cached += rep.cached()
			return nil
		}

		var resp bytes.Buffer
		posts, direct, deep := bodies(), bodies(), bodies()
		inputs := make([]*probeInput, len(deep))
		for i, b := range deep {
			if inputs[i], err = pr.prepare(b); err != nil {
				return lt, err
			}
		}
		hits := make([]int, len(deep))
		var this [numProbes][]time.Duration
		for _, step := range []struct {
			probe, n int
			f        func(i int) error
		}{
			{pPost, len(posts), func(i int) error {
				status, _, err := t.post(url, posts[i], &resp)
				if err != nil {
					return err
				}
				return countCached(status, resp.Bytes())
			}},
			{pHandler, len(direct), func(i int) error {
				rec := httptest.NewRecorder()
				t.dep.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(direct[i])))
				return countCached(rec.Code, rec.Body.Bytes())
			}},
			{pDecode, len(deep), func(i int) error {
				_, err := decode(deep[i])
				return err
			}},
			{pRegistry, len(deep), func(i int) (err error) {
				hits[i], err = pr.registryPredict(inputs[i], deadline)
				lt.requests++
				lt.cached += hits[i]
				return err
			}},
			{pServer, len(deep), func(i int) error { return pr.serverInfer(inputs[i]) }},
			{pExecute, len(deep), func(i int) error { return pr.executeCodes(inputs[i]) }},
			// The interpreter is an order of magnitude slower.
			{pInterp, min(sz.interpRequests, len(deep)), func(i int) error { pr.interpret(inputs[i]); return nil }},
		} {
			if this[step.probe], err = timed(step.probe, step.n, step.f); err != nil {
				return lt, err
			}
			calls[step.probe] = append(calls[step.probe], this[step.probe]...)
		}
		for i, reg := range this[pRegistry] {
			// The engine ran for the share of the samples the cache missed.
			self = append(self, reg-this[pServer][i]*time.Duration(w.Batch-hits[i])/time.Duration(w.Batch))
		}
		spans.end(rep)
		lt.reps++
	}
	for p := range lt.probe {
		lt.probe[p] = ms(percentile(calls[p], 0.5))
	}
	lt.predictSelf = ms(percentile(self, 0.5))
	return lt, nil
}
