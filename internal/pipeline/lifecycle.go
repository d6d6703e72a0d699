package pipeline

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// Daemon is the shared run-until-signalled scaffolding every daemon
// binary (brokerd, listend, tacc_statsd) used to hand-roll: trap
// SIGINT/SIGTERM, run the body, and on the first signal call Stop and
// cancel the body's context so it can drain and exit.
type Daemon struct {
	// Body is the daemon's blocking work; its context is cancelled when
	// the first signal arrives. Nil means "just wait for a signal".
	Body func(ctx context.Context) error
	// Stop, if set, runs once from the signal goroutine when the first
	// signal arrives — the place to log, flip health endpoints, and
	// unblock Body by closing listeners or consumers.
	Stop func(sig os.Signal)
}

// Run blocks until Body returns or a shutdown signal arrives. On a
// signal it calls Stop, cancels Body's context, and waits for Body to
// finish draining. A second signal during the drain is the operator's
// escape hatch: Run stops waiting on Body and returns an error, so a
// wedged drain never needs SIGKILL. It returns the signal (nil if Body
// exited on its own) and Body's error.
func (d Daemon) Run() (os.Signal, error) {
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(ch)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bodyDone := make(chan error, 1)
	if d.Body != nil {
		go func() { bodyDone <- d.Body(ctx) }()
	}

	var bodyCh chan error
	if d.Body != nil {
		bodyCh = bodyDone
	}
	select {
	case err := <-bodyCh:
		return nil, err
	case sig := <-ch:
		if d.Stop != nil {
			d.Stop(sig)
		}
		cancel()
		if d.Body == nil {
			return sig, nil
		}
		select {
		case err := <-bodyDone:
			return sig, err
		case sig2 := <-ch:
			return sig2, fmt.Errorf("pipeline: %v during drain: abandoning shutdown wait", sig2)
		}
	}
}
