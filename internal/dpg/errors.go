package dpg

import "errors"

// The model's public entry points return structured errors instead of
// panicking, so callers feeding externally produced traces can react by
// taxonomy. Match with errors.Is.
var (
	// ErrConfig reports an invalid model configuration or API misuse
	// (missing predictor factory, a predictor constructor that rejected
	// its parameters, Observe after Finish).
	ErrConfig = errors.New("invalid model configuration")
	// ErrMalformedEvent reports a trace event whose fields are out of
	// range for the model (invalid opcode, register number ≥ NumRegs,
	// more than two sources, PC past the static program).
	ErrMalformedEvent = errors.New("malformed trace event")
	// ErrSpeculation reports an internal desynchronisation of the
	// speculative pass (a predictor chain's recorded outcome stream did not
	// line up with the committed event stream). It indicates a bug, not bad
	// input; the sequential passes can never return it.
	ErrSpeculation = errors.New("speculative pass desynchronised")
)
