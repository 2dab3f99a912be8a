package engine

// White-box SWAR tests: the storage pass's lane-overflow legality rule
// at its exact boundary and the intra-op tile splitter.

import (
	"testing"

	"torch2chip/internal/tensor"
)

// TestSwarEligibleBoundary: with int8 activations (full span 255) and
// weights spanning [−128, 127] (span 255), the SWAR path is legal up to
// K = 66051 and must fall back at K = 66052.
func TestSwarEligibleBoundary(t *testing.T) {
	if !swarEligible(66051, tensor.I8, -128, 127) {
		t.Fatal("K=66051 with full i8 spans must bind the SWAR path")
	}
	if swarEligible(66052, tensor.I8, -128, 127) {
		t.Fatal("K=66052 with full i8 spans must fall back to the int32 panel")
	}
	// U8 activations span the same 255 codes.
	if !swarEligible(66051, tensor.U8, -128, 127) || swarEligible(66052, tensor.U8, -128, 127) {
		t.Fatal("u8 storage must share the i8 boundary")
	}
	// Narrower weights relax the K bound proportionally: span 1 weights
	// admit K up to laneMax/255.
	if !swarEligible((1<<32-1)/255, tensor.I8, 0, 1) {
		t.Fatal("span-1 weights must admit K = laneMax/255")
	}
	if swarEligible((1<<32-1)/255+1, tensor.I8, 0, 1) {
		t.Fatal("span-1 weights must reject K = laneMax/255 + 1")
	}
	// 16-bit activations span 65535: even tiny K overflows quickly.
	if swarEligible(1<<16, tensor.I16, -128, 127) {
		t.Fatal("i16 activations at K=65536 must not bind SWAR")
	}
}

func TestSplitTileM(t *testing.T) {
	// One sample, 1024 sites, 64-site tile: 16 jobs already cover 8
	// workers — no split.
	if got := splitTileM(64, 1024, 1, 8); got != 64 {
		t.Fatalf("splitTileM kept-grid case: got %d, want 64", got)
	}
	// 64 sites in one 64-site tile is a single job; 8 workers force the
	// tile down to 8 sites (8 jobs).
	if got := splitTileM(64, 64, 1, 8); got != 8 {
		t.Fatalf("splitTileM split case: got %d, want 8", got)
	}
	// The floor holds even when the grid can never reach the worker count.
	if got := splitTileM(64, 8, 1, 64); got != 8 {
		t.Fatalf("splitTileM floor case: got %d, want 8", got)
	}
	// Serial executors never split.
	if got := splitTileM(64, 64, 1, 1); got != 64 {
		t.Fatalf("splitTileM serial case: got %d, want 64", got)
	}
}
