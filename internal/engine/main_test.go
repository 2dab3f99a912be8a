package engine_test

import (
	"os"
	"runtime"
	"testing"

	"torch2chip/internal/tensor"
)

// TestMain widens GOMAXPROCS to at least 4 before the tensor worker
// pool freezes its width, so the parallel kernel paths — slot-confined
// job grids, tile splitting, the GOMAXPROCS bench sweep — are
// genuinely exercised even on 1- and 2-core CI runners. Wall-clock
// scaling assertions still gate on runtime.NumCPU separately.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	tensor.InitParallel()
	os.Exit(m.Run())
}
