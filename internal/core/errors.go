package core

import (
	"context"
	"errors"
	"fmt"
)

// The typed error taxonomy of the engine. Callers (most prominently
// the serving layer in internal/server) branch on these with errors.Is
// instead of string-matching error text:
//
//	ErrUnknownQuery → HTTP 404
//	ErrParse        → HTTP 400
//	ErrCancelled    → HTTP 408
//	ErrOverload     → HTTP 429
//	ErrDuplicateQuery → HTTP 409
//	ErrResourceLimit  → HTTP 422
//
// Every sentinel is wrapped (never returned bare) so messages keep
// their context while errors.Is keeps working.
var (
	// ErrUnknownQuery reports a Run/Explain of a name that was never
	// installed.
	ErrUnknownQuery = errors.New("query is not installed")
	// ErrParse reports GSQL source that failed to parse or validate.
	ErrParse = errors.New("parse error")
	// ErrCancelled reports a run stopped by context cancellation or
	// deadline expiry before completing.
	ErrCancelled = errors.New("query cancelled")
	// ErrOverload reports work refused because an admission limit was
	// reached. The engine itself never returns it; it anchors the
	// taxonomy for admission controllers layered on top (the serving
	// layer's 429).
	ErrOverload = errors.New("overloaded")
	// ErrDuplicateQuery reports an Install of a query name that is
	// already in the catalog.
	ErrDuplicateQuery = errors.New("query already installed")
	// ErrResourceLimit reports a run refused because its working set
	// exceeds a hard engine limit, such as a pattern's product graph
	// being too large for the SDMC kernel (match.ErrProductTooLarge).
	ErrResourceLimit = errors.New("resource limit exceeded")
)

// cancelErr wraps the context's cause as an ErrCancelled.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("%w: %v", ErrCancelled, context.Cause(ctx))
}
