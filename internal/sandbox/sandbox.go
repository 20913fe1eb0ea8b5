// Package sandbox exists only for cmd/bench, which was written against
// sandbox.Target before the in-process runner moved into
// internal/executor. Everything else uses executor.Target.
package sandbox

import "repro/internal/executor"

// Target is executor.Target.
type Target = executor.Target
