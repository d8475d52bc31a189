// Package cli is the shared command-line entry layer: every tool's main is
// a `run(ctx) error` driven by Main, which installs SIGINT/SIGTERM → context
// cancellation and converts the returned error into the repo-wide exit-code
// contract:
//
//	0  success
//	1  usage error (bad flags, unknown subcommand/experiment id)
//	2  input error (malformed graph/feature/config files, unknown
//	   model/dataset names — anything wrapping the fault sentinels or a
//	   missing file)
//	3  runtime failure (simulation errors, contained panics, cancellation)
//
// Replacing log.Fatal/panic exits with returned errors is what makes the
// tools cancellable: a deferred profile write actually runs on the way out,
// where os.Exit would have skipped it.
package cli

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"os/signal"
	"syscall"

	"scale/internal/fault"
)

// Exit codes of the contract above.
const (
	ExitUsage   = 1
	ExitInput   = 2
	ExitRuntime = 3
)

// UsageError marks a command-line usage mistake; Code maps it to ExitUsage.
type UsageError struct{ Err error }

func (e *UsageError) Error() string { return e.Err.Error() }
func (e *UsageError) Unwrap() error { return e.Err }

// Usagef builds a UsageError.
func Usagef(format string, args ...any) error {
	return &UsageError{Err: fmt.Errorf(format, args...)}
}

// Code classifies err into the exit-code contract. Input errors are
// recognized by the fault sentinels and missing-file errors; everything
// else non-nil — including contained panics and cancellation — is a
// runtime failure.
func Code(err error) int {
	var ue *UsageError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ue):
		return ExitUsage
	case fault.IsInput(err), errors.Is(err, fs.ErrNotExist):
		return ExitInput
	default:
		return ExitRuntime
	}
}

// Main drives a tool: it runs `run` under a context cancelled by SIGINT or
// SIGTERM (so a Ctrl-C'd sweep stops at the engine's cell boundaries, a
// serve drain finishes its in-flight requests, and deferred cleanup such
// as profile writes still executes), prints any error prefixed with the
// tool name, and exits with Code(err).
//
// The first signal requests a graceful stop; once it lands, Main restores
// the default signal disposition, so a second SIGINT/SIGTERM force-kills a
// drain that is taking too long.
func Main(name string, run func(ctx context.Context) error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	err := run(ctx)
	stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(Code(err))
	}
}
