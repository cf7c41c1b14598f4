package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"punt"
)

// ErrorBody is the JSON error payload of every non-2xx response.  ExitCode
// carries the CLI exit status the failure corresponds to, so `punt -server`
// preserves the local command's exit-code contract (1 synthesis failure,
// 2 usage, 3 verification failure, 4 budget exhaustion) without parsing
// messages.
type ErrorBody struct {
	Error      string `json:"error"`
	Kind       string `json:"kind,omitempty"`
	ExitCode   int    `json:"exit_code"`
	RetryAfter int    `json:"retry_after_seconds,omitempty"`
	// Diagnostic is the full structured error when the failure carries one;
	// clients that want the trace, the conflicting signal or the attempt
	// ladder decode it with the library's Diagnostic type.
	Diagnostic *punt.Diagnostic `json:"diagnostic,omitempty"`
}

// errOverloaded is the admission-control rejection: every synthesis slot is
// busy and the wait queue is full.
var errOverloaded = errors.New("server overloaded: all synthesis slots busy and the queue is full")

// overloadedError is errOverloaded with a load-derived retry hint attached:
// RetryAfter estimates, from the queue depth and the median observed synthesis
// time, how long until a slot plausibly frees up.  errors.Is(err,
// errOverloaded) still holds, so classification is unchanged.
type overloadedError struct{ RetryAfter int }

func (e *overloadedError) Error() string { return errOverloaded.Error() }
func (e *overloadedError) Unwrap() error { return errOverloaded }

// parseError marks a specification that failed to parse — a malformed .g
// body, reported like the CLI's load failure (exit 1) but with a 400 status
// because the request itself is at fault.
type parseError struct{ err error }

func (e *parseError) Error() string { return e.err.Error() }
func (e *parseError) Unwrap() error { return e.err }

// verifyError marks a failed (or inconclusive) closed-loop verification of
// a synthesized implementation — exit 3 whether a property failed or a state
// bound stopped it, exactly as the CLI reports a local verification failure.
type verifyError struct{ err error }

func (e *verifyError) Error() string { return e.err.Error() }
func (e *verifyError) Unwrap() error { return e.err }

// classify maps an error to its HTTP status and CLI exit code, mirroring the
// punt command's exit statuses.
func classify(err error) (status, exitCode int) {
	var ue *usageError
	switch {
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests, 1
	case errors.As(err, &ue):
		return http.StatusBadRequest, 2
	case errors.Is(err, punt.ErrBudget):
		// The request's own resource budget ran out: the service is fine,
		// this configuration is not — 503 tells load balancers not to blame
		// the replica, exit code 4 tells the client what the CLI would.
		return http.StatusServiceUnavailable, 4
	case errors.Is(err, punt.ErrVerification):
		return http.StatusUnprocessableEntity, 3
	case errors.As(err, new(*parseError)):
		return http.StatusBadRequest, 1
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, 4
	case errors.As(err, new(*verifyError)):
		return http.StatusUnprocessableEntity, 3
	default:
		// A property of the specification (CSC, safeness, …) or an engine
		// failure: the request was well-formed but cannot be satisfied.
		return http.StatusUnprocessableEntity, 1
	}
}

// ExitCode is the punt CLI exit status err maps to: 1 synthesis failure,
// 2 usage, 3 failed verification, 4 budget exhaustion.  Daemon error
// responses carry the same code, so a local run and a -server run of one
// request exit alike.
func ExitCode(err error) int {
	_, code := classify(err)
	return code
}

// errorBody builds the wire payload for err.
func errorBody(err error) ErrorBody {
	_, exit := classify(err)
	body := ErrorBody{Error: err.Error(), ExitCode: exit}
	var oe *overloadedError
	switch {
	case errors.As(err, &oe):
		body.RetryAfter = oe.RetryAfter
	case errors.Is(err, errOverloaded):
		body.RetryAfter = 1
	}
	var d *punt.Diagnostic
	if errors.As(err, &d) {
		body.Kind = d.Kind.String()
		body.Diagnostic = d
	}
	return body
}

// writeError sends err as a JSON error response.
func writeError(w http.ResponseWriter, err error) {
	status, _ := classify(err)
	body := errorBody(err)
	w.Header().Set("Content-Type", "application/json")
	if body.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(body.RetryAfter))
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}
