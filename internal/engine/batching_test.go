package engine_test

// The batching contract of the work-conserving batcher: a group enters
// the queue whole and an idle server runs it as one batch; batches grow
// only from work that accumulates while every worker is busy; and a
// group that does not fit is rejected whole.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"torch2chip/internal/data"
	"torch2chip/internal/engine"
	"torch2chip/internal/tensor"
)

// TestBatchContractGroupIsOneBatch sends groups of every size up to
// MaxBatch to an idle server: each must run as exactly one batch of its
// size, bit-identical to the interpreter.
func TestBatchContractGroupIsOneBatch(t *testing.T) {
	g := tensor.NewRNG(131)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	im, prog := compile(t, smallCNN(g), calib)
	const maxBatch = 8
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{Workers: 2, MaxBatch: maxBatch})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for n := 1; n <= maxBatch; n++ {
		xs := make([]*tensor.Tensor, n)
		group := make([]*tensor.IntTensor, n)
		for i := range xs {
			xs[i] = g.Uniform(0, 1, 1, 3, 8, 8)
			group[i] = quantize(prog, xs[i])
		}
		before := srv.Stats()
		out, err := srv.TryInferCodes(group, time.Time{}, engine.PriNormal, 0)
		if err != nil {
			t.Fatal(err)
		}
		after := srv.Stats()
		if b, r := after.Batches-before.Batches, after.Requests-before.Requests; b != 1 || r != int64(n) {
			t.Fatalf("group of %d ran as %d batches over %d samples, want 1 batch of %d", n, b, r, n)
		}
		for i, x := range xs {
			want := im.Forward(x)
			got := prog.DequantizeOutput(out[i].Data, want.Shape)
			for j := range want.Data {
				if got.Data[j] != want.Data[j] {
					t.Fatalf("group of %d, sample %d: logit %d = %v, interpreter %v", n, i, j, got.Data[j], want.Data[j])
				}
			}
		}
	}
}

// TestBatchContractAccumulatesWhileBusy holds the only worker, sends
// three single requests, and checks they accumulate in the batcher and
// run as one batch of 3 once the worker is released.
func TestBatchContractAccumulatesWhileBusy(t *testing.T) {
	g := tensor.NewRNG(137)
	calib, _ := data.Generate(data.SynthCIFAR10, 32, 8)
	_, prog := compile(t, smallCNN(g), calib)
	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, err := engine.NewServer(prog, []int{3, 8, 8}, engine.ServerOptions{
		Workers: 1, MaxBatch: 8, Kernels: blockingKernels(gate, release),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer wg.Wait()
	defer unblock()

	x := g.Uniform(0, 1, 3, 8, 8)
	infer := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := srv.Infer(x); err != nil {
				t.Error(err)
			}
		}()
	}
	infer()
	<-gate
	for i := 0; i < 3; i++ {
		infer()
	}
	awaitHeld(t, srv, 4)
	unblock()
	wg.Wait()
	if st := srv.Stats(); st.Batches != 2 || st.Requests != 4 || st.Batched != 3 {
		t.Fatalf("stats %+v, want the held request alone and then one batch of 3", st)
	}
}

// TestBatchContractFullQueueRejectsGroupWhole fills the queue behind a
// held worker and checks victim selection for groups: a group that
// cannot make room is rejected whole, leaving the queue untouched, and
// a more urgent group evicts exactly as many less urgent requests as it
// needs.
func TestBatchContractFullQueueRejectsGroupWhole(t *testing.T) {
	g := tensor.NewRNG(139)
	gate := make(chan struct{}, 1)
	release := make(chan struct{})
	srv, prog := schedServer(t, g, engine.SchedEDF, 4, gate, release)
	var wg sync.WaitGroup
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer srv.Close()
	defer wg.Wait()
	defer unblock()

	x := quantize(prog, g.Uniform(0, 1, 3, 8, 8))
	groupOf := func(n int) []*tensor.IntTensor {
		group := make([]*tensor.IntTensor, n)
		for i := range group {
			group[i] = x
		}
		return group
	}
	errs := map[string]chan error{}
	fire := func(label string, n int, class engine.PriorityClass) {
		ch := make(chan error, 1)
		errs[label] = ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := srv.TryInferCodes(groupOf(n), time.Time{}, class, 0)
			ch <- err
		}()
	}
	// Worker and batcher's hand, then a low group of 3 and a low single
	// fill the queue of 4.
	fire("hold", 1, engine.PriLow)
	<-gate
	fire("hand", 1, engine.PriLow)
	awaitHeld(t, srv, 2)
	fire("group", 3, engine.PriLow)
	awaitQueueDepth(t, srv, 3)
	fire("single", 1, engine.PriLow)
	awaitQueueDepth(t, srv, 4)

	// An equally urgent group cannot evict anything: rejected whole.
	if _, err := srv.TryInferCodes(groupOf(2), time.Time{}, engine.PriLow, 0); !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("low group into a full queue returned %v, want ErrQueueFull", err)
	}
	if d := srv.QueueDepth(); d != 4 {
		t.Fatalf("queue depth %d after a rejected group, want 4 (unchanged)", d)
	}
	// A high group of 2 evicts the two least urgent: the single, then the
	// low group's last member.
	fire("high", 2, engine.PriHigh)
	select {
	case err := <-errs["single"]:
		if !errors.Is(err, engine.ErrQueueFull) {
			t.Fatalf("evicted single returned %v, want ErrQueueFull", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no queued request was evicted for the high group")
	}
	if d := srv.QueueDepth(); d != 4 {
		t.Fatalf("queue depth %d after the high group, want 4", d)
	}

	unblock()
	wg.Wait()
	for _, label := range []string{"hold", "hand", "high"} {
		if err := <-errs[label]; err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	// The low group lost one member, so it fails as a whole.
	if err := <-errs["group"]; !errors.Is(err, engine.ErrQueueFull) {
		t.Fatalf("partly evicted group returned %v, want ErrQueueFull", err)
	}
	st := srv.Stats()
	if st.ShedLow != 4 || st.ShedHigh != 0 {
		t.Fatalf("shed low/high = %d/%d, want 4/0 (2 rejected whole, 2 evicted)", st.ShedLow, st.ShedHigh)
	}
	// hold + hand + high's 2 + the low group's 2 surviving members.
	if st.Requests != 6 {
		t.Fatalf("stats requests = %d, want 6", st.Requests)
	}
}
