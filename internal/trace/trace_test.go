package trace

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

func TestKindsDistinct(t *testing.T) {
	kinds := []Kind{KindInstr, KindBatch, KindQueueWait,
		KindBatchForm, KindRequest, KindFanout, KindAdmission, KindDecode, KindEncode}
	seen := map[Kind]bool{}
	for _, k := range kinds {
		if k == 0 {
			t.Fatalf("kind %s has zero value (reserved for torn slots)", k)
		}
		if seen[k] {
			t.Fatalf("duplicate kind value %d (%s)", k, k)
		}
		seen[k] = true
		if k.String() == "span" {
			t.Fatalf("kind %d missing a String case", k)
		}
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.SetEnabled(true)
	if tr.SampleRequest() {
		t.Fatal("nil tracer samples requests")
	}
	r := tr.NewRing()
	if r != nil {
		t.Fatal("nil tracer returned a ring")
	}
	if r.Active() {
		t.Fatal("nil ring reports active")
	}
	if r.Tracer() != nil {
		t.Fatal("nil ring returned a tracer")
	}
	if r.Len() != 0 {
		t.Fatal("nil ring has length")
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if got := tr.OpProfile(); got != nil {
		t.Fatalf("nil tracer op profile = %v", got)
	}
}

func TestRingInactiveUntilEnabled(t *testing.T) {
	tr := New(Config{RingSpans: 8})
	r := tr.NewRing()
	if r.Active() {
		t.Fatal("ring active before SetEnabled")
	}
	tr.SetEnabled(true)
	if !r.Active() {
		t.Fatal("ring inactive after SetEnabled")
	}
	tr.SetEnabled(false)
	if r.Active() {
		t.Fatal("ring active after disable")
	}
}

func TestRingWraparound(t *testing.T) {
	tr := New(Config{RingSpans: 8})
	tr.SetEnabled(true)
	r := tr.NewRing()
	nm := tr.Intern("x")
	const total = 20 // 2.5× the ring
	for i := 0; i < total; i++ {
		r.Record(Span{Start: int64(i), Dur: 1, Name: nm, Kind: KindInstr, TID: 7, A0: int64(i) * 10})
	}
	if r.Len() != total {
		t.Fatalf("Len = %d, want %d", r.Len(), total)
	}
	got := tr.Snapshot()
	if len(got) != 8 {
		t.Fatalf("snapshot kept %d spans, want the ring size 8", len(got))
	}
	// The retained window must be exactly the newest 8, in start order.
	for i, s := range got {
		want := int64(total - 8 + i)
		if s.Start != want || s.A0 != want*10 || s.TID != 7 || s.Kind != KindInstr {
			t.Fatalf("span %d = %+v, want Start %d", i, s, want)
		}
	}
}

func TestRingConcurrentWriters(t *testing.T) {
	tr := New(Config{RingSpans: 64})
	tr.SetEnabled(true)
	r := tr.NewRing()
	nm := tr.Intern("w")
	const writers, per = 8, 500
	var wg sync.WaitGroup
	done := make(chan struct{})
	// A reader snapshots continuously while writers overwrite the ring
	// many times over; under -race this exercises the seqlock protocol.
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				for _, s := range tr.Snapshot() {
					// Every intact span must be internally consistent:
					// the writer stored A1 = Start+A0.
					if s.A1 != s.Start+s.A0 {
						panic("torn span escaped the seq check")
					}
					_ = s
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st := int64(w*per + i)
				a0 := int64(i % 13)
				r.Record(Span{Start: st, Dur: 1, Name: nm, Kind: KindInstr, TID: int32(w), A0: a0, A1: st + a0})
			}
		}(w)
	}
	wg.Wait()
	close(done)
	if r.Len() != writers*per {
		t.Fatalf("Len = %d, want %d", r.Len(), writers*per)
	}
	got := tr.Snapshot()
	if len(got) == 0 || len(got) > 64 {
		t.Fatalf("snapshot kept %d spans, want 1..64", len(got))
	}
	for _, s := range got {
		if s.A1 != s.Start+s.A0 {
			t.Fatalf("inconsistent span survived: %+v", s)
		}
	}
	// KindInstr spans feed the op histogram regardless of wraparound.
	ops := tr.OpProfile()
	if len(ops) != 1 || ops[0].Name != "w" || ops[0].Count != writers*per {
		t.Fatalf("op profile = %+v, want %d observations of \"w\"", ops, writers*per)
	}
}

func TestMetaPackRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name uint32
		kind Kind
		tid  int32
	}{
		{0, KindInstr, 0},
		{1 << 31, KindAdmission, 1_000_000},
		{42, KindBatch, 999},
	} {
		n, k, id := unpackMeta(packMeta(tc.name, tc.kind, tc.tid))
		if n != tc.name || k != tc.kind || id != tc.tid {
			t.Fatalf("roundtrip(%v) = (%d,%v,%d)", tc, n, k, id)
		}
	}
}

func TestSampleRequest(t *testing.T) {
	tr := New(Config{SampleEvery: 4})
	tr.SetEnabled(true)
	hits := 0
	for i := 0; i < 40; i++ {
		if tr.SampleRequest() {
			hits++
		}
	}
	if hits != 10 {
		t.Fatalf("1-in-4 sampling over 40 requests hit %d, want 10", hits)
	}
	every := New(Config{})
	for i := 0; i < 5; i++ {
		if !every.SampleRequest() {
			t.Fatal("default sampling must trace every request")
		}
	}
}

func TestHistObserve(t *testing.T) {
	h := NewHist([]int64{10, 100})
	h.Observe(5)    // bucket 0
	h.Observe(10)   // bucket 0 (le is inclusive)
	h.Observe(50)   // bucket 1
	h.Observe(1000) // +Inf overflow
	s := h.Snapshot()
	want := []int64{2, 1, 1}
	for i, c := range want {
		if s.Counts[i] != c {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], c, s.Counts)
		}
	}
	if s.Count != 4 || s.SumNs != 1065 {
		t.Fatalf("count/sum = %d/%d, want 4/1065", s.Count, s.SumNs)
	}
}

func TestWriteChromeValidJSON(t *testing.T) {
	tr := New(Config{RingSpans: 8})
	tr.SetEnabled(true)
	r := tr.NewRing()
	nm := tr.Intern("conv")
	r.Record(Span{Start: 1500, Dur: 2750, Name: nm, Kind: KindInstr, TID: 3, ID: 9, A0: 64, A1: 2})
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr, "m", tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 2 { // metadata + span
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "conv" || ev.Cat != "instr" || ev.Ph != "X" || ev.Tid != 3 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Ts != 1.5 || ev.Dur != 2.75 {
		t.Fatalf("ts/dur = %g/%g, want 1.5/2.75 µs", ev.Ts, ev.Dur)
	}
	if ev.Args["id"] != float64(9) || ev.Args["a0"] != float64(64) {
		t.Fatalf("args = %v", ev.Args)
	}
}
