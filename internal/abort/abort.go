// Package abort carries the shared vocabulary of the anytime solve
// pipeline: why a solver stopped before proving its answer (Reason) and
// what a recovered user-callback panic looks like (PanicError). Every
// solver (OA*/HA*/beam, IP branch-and-bound, O-SVP, brute force) maps
// its early-exit conditions onto these reasons so callers — and the
// trace schema, whose "abort" events carry Reason.String() — see one
// consistent classification.
package abort

import (
	"context"
	"fmt"
	"runtime/debug"
)

// Reason classifies why a solve stopped before completing its search.
// The zero value None means the solve ran to completion. A nonzero
// Reason accompanies a degraded result: the best incumbent the solver
// held when it stopped, returned as a usable schedule instead of an
// error.
type Reason uint8

const (
	// None: the solve completed normally.
	None Reason = iota
	// Deadline: the context's deadline expired (the context is every
	// solver's only wall-clock budget).
	Deadline
	// Cancel: the context was cancelled.
	Cancel
	// Expansions: the MaxExpansions (or MaxNodes) cap was reached.
	Expansions
	// Memory: the MemoryBudget byte estimate was exceeded.
	Memory
)

// String returns the stable lowercase name the JSONL event schema and
// the astar.aborts.* metric family use ("" for None).
func (r Reason) String() string {
	switch r {
	case None:
		return ""
	case Deadline:
		return "deadline"
	case Cancel:
		return "cancel"
	case Expansions:
		return "expansions"
	case Memory:
		return "memory"
	default:
		return fmt.Sprintf("Reason(%d)", uint8(r))
	}
}

// FromContext classifies why a done context ended: Deadline for an
// expired deadline, Cancel for everything else (including a nil or
// still-live context, which conservatively maps to Cancel — callers
// only invoke this after observing ctx.Done()).
func FromContext(ctx context.Context) Reason {
	if ctx != nil && ctx.Err() == context.DeadlineExceeded {
		return Deadline
	}
	return Cancel
}

// PanicError wraps a panic recovered at a Solve/Run boundary — a
// user-supplied callback (Policy.Place, a Tracer, an EventSink) blew up
// mid-solve. The solve returns it as an ordinary error after flushing
// its event sink, so one broken callback cannot take the process down
// or lose the trace collected so far.
type PanicError struct {
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack at the recovery point, including the
	// panicking frames.
	Stack []byte
}

// Recovered builds a PanicError from a recover() value, capturing the
// stack. Call it directly inside the deferred function so the panicking
// frames are still on the stack.
func Recovered(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Error implements the error interface.
func (e *PanicError) Error() string {
	return fmt.Sprintf("recovered panic: %v", e.Value)
}
