// Package targets defines the protocol-program interface the fuzzing
// engines run against, and a registry of the six open-source ICS protocol
// implementations the paper evaluates (§V-A): libmodbus, IEC104,
// libiec61850, lib60870, libiccp (libiec_iccp_mod), and opendnp3.
//
// Each target is a Go reimplementation of the corresponding C library's
// packet-processing core, instrumented with coverage hooks at branch
// points (the paper instruments the originals with an LLVM pass; here the
// hooks are explicit Tracer.Hit calls). Targets are stateful, like
// the long-running server processes the paper fuzzes: register banks,
// sessions and connection state persist across packets within a campaign.
package targets

import (
	"fmt"
	"sort"

	"repro/internal/coverage"
	"repro/internal/datamodel"
)

// Target is one protocol program under test plus its format specification.
type Target interface {
	// Name is the project name as the paper spells it.
	Name() string
	// Models returns the data-model set of the target's Pit file — one
	// model per packet type (§III).
	Models() []*datamodel.Model
	// Handle processes one protocol packet, reporting coverage through
	// tr. It may panic with *mem.Fault or a runtime error;
	// executor.InProc recovers both. A target opts into checkpointed
	// state (executor.StateCheckpointer) and session resets
	// (executor.SessionResetter) by implementing them too.
	Handle(tr *coverage.Tracer, packet []byte)
}

// Factory constructs a fresh target instance (fresh server state).
type Factory func() Target

var registry = map[string]Factory{}

// Register adds a target factory under its canonical name. Target packages
// call it from init; duplicate registration panics.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("targets: duplicate registration of %q", name))
	}
	registry[name] = f
}

// New instantiates the named target.
func New(name string) (Target, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("targets: unknown target %q (have %v)", name, Names())
	}
	return f(), nil
}

// Names lists registered targets, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
