package manager

import (
	"context"
	"os"
	"os/signal"
	"sync"
	"syscall"
)

// ShutdownContext returns a context canceled on SIGINT or SIGTERM, giving
// ddtd and manager-attached ddtfuzz workers one graceful-shutdown path: the
// first signal cancels (flush state, send the final report), a second
// signal force-exits with the conventional 128+SIGINT status for operators
// who will not wait for the flush. The returned cancel releases the
// signals, before or after the first one arrived: once it returns, no
// later signal reaches this context's handler.
func ShutdownContext(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	ch := make(chan os.Signal, 2)
	released := make(chan struct{})
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		select {
		case <-ch:
			cancel()
		case <-released:
			return
		}
		select {
		case <-ch:
			os.Exit(130)
		case <-released:
		}
	}()
	return ctx, sync.OnceFunc(func() {
		signal.Stop(ch)
		close(released)
		cancel()
	})
}
