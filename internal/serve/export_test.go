package serve

import "torch2chip/internal/engine"

// SwapNewServer replaces the constructor Load builds each model
// version's engine server with, returning the restore function.
func SwapNewServer(f func(*engine.Program, []int, engine.ServerOptions) (*engine.Server, error)) (restore func()) {
	old := newServer
	newServer = f
	return func() { newServer = old }
}
