package main

// The benchmark's own load generator. It does not use serve.RunLoad,
// which a later change to the repository may alter.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// target is a served deployment on a loopback TCP listener, and the
// client that sends to it.
type target struct {
	dep    *deployment
	srv    *http.Server
	served chan struct{} // closed when srv.Serve has returned
	base   string
	client *http.Client
}

func serveOnLoopback(dep *deployment) (*target, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &target{
		dep:    dep,
		srv:    &http.Server{Handler: dep.handler},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		// One idle connection per outstanding request, so the open loop
		// keeps its connections as the closed loops keep theirs.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 32}},
	}
	go func() {
		_ = t.srv.Serve(ln) // returns ErrServerClosed after close
		close(t.served)
	}()
	return t, nil
}

func (t *target) close() {
	t.client.CloseIdleConnections()
	_ = t.srv.Close()
	<-t.served
	t.dep.close()
}

func (t *target) predictURL(w workload) string {
	u := t.base + "/v1/models/" + modelName + ":predict"
	if w.DeadlineMS > 0 {
		u += fmt.Sprintf("?deadline_ms=%d", w.DeadlineMS)
	}
	return u
}

// post sends one predict body, reads the whole response into resp and
// returns the status and the time the body had been read.
func (t *target) post(url string, body []byte, resp *bytes.Buffer) (int, time.Time, error) {
	r, err := t.client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, time.Now(), err
	}
	resp.Reset()
	_, err = io.Copy(resp, r.Body)
	done := time.Now()
	r.Body.Close()
	return r.StatusCode, done, err
}

// predictReply is what the benchmark reads of a predict response.
type predictReply struct {
	Predictions []struct {
		Logits []float32 `json:"logits"`
		Cached bool      `json:"cached"`
	} `json:"predictions"`
}

// parseReply accepts a response only if it is a 200 carrying one
// prediction per sample with numClasses logits each.
func parseReply(status int, raw []byte, samples int) (*predictReply, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", status, raw)
	}
	var rep predictReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, err
	}
	if len(rep.Predictions) != samples {
		return nil, fmt.Errorf("%d predictions for %d samples", len(rep.Predictions), samples)
	}
	for _, p := range rep.Predictions {
		if len(p.Logits) != numClasses {
			return nil, fmt.Errorf("%d logits, want %d", len(p.Logits), numClasses)
		}
	}
	return &rep, nil
}

func (r *predictReply) cached() int {
	n := 0
	for _, p := range r.Predictions {
		if p.Cached {
			n++
		}
	}
	return n
}

// modelStats is what the benchmark reads of GET /v1/models.
type modelStats struct {
	Stats struct {
		Requests, Batches, Rejected, Expired int64
	} `json:"stats"`
	Shed int64 `json:"admission_rejected"`
	Mem  struct {
		ArenaBytes       int64   `json:"arena_bytes"`
		ScratchBytes     int64   `json:"scratch_bytes"`
		ParallelFraction float64 `json:"parallel_fraction"`
		SkipFraction     float64 `json:"skip_fraction"`
	} `json:"mem"`
	Cache struct {
		Hits, Misses, Evictions, Suppressed int64
	} `json:"cache"`
}

func (t *target) stats() (modelStats, error) {
	r, err := t.client.Get(t.base + "/v1/models")
	if err != nil {
		return modelStats{}, err
	}
	defer r.Body.Close()
	var list struct {
		Models []modelStats `json:"models"`
	}
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		return modelStats{}, err
	}
	if len(list.Models) != 1 {
		return modelStats{}, fmt.Errorf("GET /v1/models lists %d models, want 1", len(list.Models))
	}
	return list.Models[0], nil
}

// window is what lay between two consecutive reference slices of a
// round and held at least one request: a closed loop's window holds one
// request, an open loop's the requests of one busy stretch. Times are at
// reference speed (see reference.go).
type window struct {
	Wall      time.Duration   // closed loop: patching, sending, reading and checking the request
	CPU       time.Duration   // process user+system time
	Latencies []time.Duration // of the requests that succeeded
	Samples   int             // in the requests that succeeded
}

// roundResult is what one round of one workload measured.
type roundResult struct {
	Windows   []window
	Factor    float64         // mean speed factor of the round's slices
	RawWall   time.Duration   // of the whole round
	RefWall   time.Duration   // open loop: of the whole round on the reference clock
	RawBusy   time.Duration   // of its windows
	GCPause   time.Duration   // stop-the-world pauses, at reference speed
	RawLags   []time.Duration // open loop: send time − due time
	Attempted int
	OK        int // requests
	Samples   int // in the requests that succeeded
	Cached    int // samples answered by the inference cache
	Dropped   int // open loop: arrivals over the outstanding cap
	FirstErr  error

	Mallocs, AllocBytes uint64
}

// outcome is one request of a round, in raw times.
type outcome struct {
	window          int // index of the reference slice before it
	due, sent, done time.Time
	cached          int
	err             error
	dropped         bool
}

// refLead is how long before an arrival is due the open loop stops
// running reference slices: a slice takes a third of it, a slice in a
// burst two thirds.
const refLead = 500 * time.Microsecond

// runRound sends one round of w. keys yields the key of each next
// sample; spans, if not nil, records one span per request under parent.
func (t *target) runRound(w workload, tmpl *bodyTemplate, keys func() int, sp *speedometer, spans *spanLog, parent int) roundResult {
	url := t.predictURL(w)
	out := make([]outcome, w.Requests)
	nextID := spans.reserveIDs(w.Requests)
	send := func(i int, body []byte, resp *bytes.Buffer, due time.Time) {
		o := &out[i]
		o.sent = time.Now()
		if o.due = due; due.IsZero() {
			o.due = o.sent
		}
		status, done, err := t.post(url, body, resp)
		o.done = done
		if err == nil {
			var rep *predictReply
			if rep, err = parseReply(status, resp.Bytes(), w.Batch); err == nil {
				o.cached = rep.cached()
			}
		}
		o.err = err
		spans.add(span{Name: "request " + w.Name, Start: o.due, End: done, Parent: parent, Req: nextID + i})
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// An open loop's window begins at its first arrival: what the
	// generator does while it waits for that is not the program's.
	type clocks struct {
		wall time.Time
		cpu  time.Duration
	}
	begins := map[int]clocks{}
	first := sp.tick()
	start := time.Now()
	var refNow time.Duration // open loop: the reference clock, from start
	if w.RateHz == 0 {
		body := append([]byte(nil), tmpl.base...)
		var resp bytes.Buffer
		for i := range out {
			out[i].window = len(sp.slices) - 1
			for s := 0; s < w.Batch; s++ {
				tmpl.patch(body, s, keys())
			}
			send(i, body, &resp, time.Time{})
			sp.tick()
		}
	} else {
		type slot struct {
			body []byte
			resp bytes.Buffer
		}
		free := make(chan *slot, w.MaxOutstanding)
		for range w.MaxOutstanding {
			free <- &slot{body: append([]byte(nil), tmpl.base...)}
		}
		var wg sync.WaitGroup
		var inFlight atomic.Int32
		idle := make(chan struct{}, 1) // the last request in flight has ended
		timer := time.NewTimer(time.Hour)
		defer timer.Stop()
		// The schedule runs on the reference clock, which advances by raw
		// time over the speed factor of the last two slices: on a machine
		// at half speed arrivals are twice as far apart, the server is as
		// busy as at reference speed, and requests queue as they do there.
		sp.tick()
		f := sp.factor(len(sp.slices) - 2)
		last := start
		advance := func() {
			now := time.Now()
			refNow += scaled(now.Sub(last), 1/f)
			last = now
		}
		for i, off := range poissonOffsets(w.Requests, w.RateHz) {
			// While nothing is in flight the generator has the thread: it
			// runs slices until the arrival is near and then spins, so the
			// arrival leaves on time and has a slice just before it. While
			// a request is in flight it sleeps, and the arrival waits for
			// the thread as it would for a busy server's.
			var due time.Time
			for {
				advance()
				left := scaled(off-refNow, f) // raw time until the arrival is due
				due = last.Add(left)
				if left <= 0 {
					break
				}
				if inFlight.Load() > 0 {
					timer.Reset(left)
					select {
					case <-timer.C:
					case <-idle:
					}
					continue
				}
				if left > refLead {
					sp.tick()
					f = sp.factor(len(sp.slices) - 2)
					continue
				}
				for time.Now().Before(due) {
					runtime.Gosched()
				}
				break
			}
			key := keys()
			select {
			case s := <-free:
				out[i].window = len(sp.slices) - 1
				if _, ok := begins[out[i].window]; !ok {
					begins[out[i].window] = clocks{time.Now(), cpuTime()}
				}
				wg.Add(1)
				inFlight.Add(1)
				go func() {
					defer wg.Done()
					tmpl.patch(s.body, 0, key)
					send(i, s.body, &s.resp, due)
					free <- s
					if inFlight.Add(-1) == 0 {
						select {
						case idle <- struct{}{}:
						default: // one is waiting already
						}
					}
				}()
			default:
				out[i].dropped = true
			}
		}
		wg.Wait()
		advance()
		sp.tick()
	}
	end := time.Now()
	runtime.ReadMemStats(&m1)

	res := roundResult{
		RawWall: end.Sub(start), RefWall: refNow, Factor: sp.meanFactor(first, len(sp.slices)), Attempted: len(out),
		Mallocs: m1.Mallocs - m0.Mallocs, AllocBytes: m1.TotalAlloc - m0.TotalAlloc,
	}
	res.GCPause = scaled(time.Duration(m1.PauseTotalNs-m0.PauseTotalNs), 1/res.Factor)
	at, scale := -1, 1.0 // the slice before the last window, and the window's scale
	for _, o := range out {
		if o.dropped {
			res.Dropped++
			continue
		}
		if w.RateHz > 0 {
			res.RawLags = append(res.RawLags, o.sent.Sub(o.due))
		}
		if o.window != at {
			at = o.window
			wall, cpu := sp.gap(at)
			if b, ok := begins[at]; ok {
				closing := sp.slices[at+1]
				wall, cpu = closing.in.Sub(b.wall), closing.cpuIn-b.cpu
			}
			scale = scaleOf(wall, cpu, sp.factor(at))
			res.RawBusy += wall
			res.Windows = append(res.Windows, window{Wall: scaled(wall, scale), CPU: scaled(cpu, 1/sp.factor(at))})
		}
		if o.err != nil {
			if res.FirstErr == nil {
				res.FirstErr = o.err
			}
			continue
		}
		res.OK++
		res.Samples += w.Batch
		res.Cached += o.cached
		win := &res.Windows[len(res.Windows)-1]
		win.Samples += w.Batch
		win.Latencies = append(win.Latencies, scaled(o.done.Sub(o.due), scale))
	}
	return res
}
