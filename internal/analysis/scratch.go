package analysis

// Scratch pools the analyzer's dense working state (see Online) across
// studies: the next analyzer given the scratch empties the state and
// refills it in place. A worker that analyzes many traces back to back
// (core's sweep worker) allocates this state once and reuses it.
// Reports are never pooled: each one is allocated fresh, so it stays
// valid after the scratch serves another analyzer.
//
// A Scratch is not safe for concurrent use; give each worker its own.
// The zero value is ready to use.
type Scratch struct {
	st state
}
