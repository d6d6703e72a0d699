// Package daemon is the run-until-signalled scaffolding the daemon
// binaries (brokerd, listend, tacc_statsd) share.
package daemon

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// Run traps SIGINT/SIGTERM and runs body until it returns or a signal
// arrives. body's context is cancelled on the first signal; nil body
// means "just wait for a signal". stop, if set, runs once from Run's
// goroutine when the first signal arrives — the place to log, flip
// health endpoints, and unblock body by closing listeners or consumers.
//
// After the first signal Run waits for body to finish draining. A
// second signal during the drain is the operator's escape hatch: Run
// stops waiting on body and returns an error, so a wedged drain never
// needs SIGKILL. It returns the signal (nil if body exited on its own)
// and body's error.
func Run(body func(ctx context.Context) error, stop func(os.Signal)) (os.Signal, error) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(ch)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var bodyDone chan error // nil without a body: never ready
	if body != nil {
		bodyDone = make(chan error, 1)
		go func() { bodyDone <- body(ctx) }()
	}

	select {
	case err := <-bodyDone:
		return nil, err
	case sig := <-ch:
		if stop != nil {
			stop(sig)
		}
		cancel()
		if body == nil {
			return sig, nil
		}
		select {
		case err := <-bodyDone:
			return sig, err
		case sig2 := <-ch:
			return sig2, fmt.Errorf("daemon: %v during drain: abandoning shutdown wait", sig2)
		}
	}
}
