// Package peachstar is the public API of this repository: a Go
// reproduction of Peach* — coverage-guided packet crack and generation for
// ICS protocol fuzzing (Luo et al., DAC 2020).
//
// The package re-exports the pieces a downstream user composes:
//
//   - data models (the Pit equivalent) via Model/Chunk builders or the
//     XML Pit parser,
//   - instrumented targets (the six ICS protocol servers the paper
//     evaluates, or any user type implementing Target),
//   - the fuzzing engine in both configurations the paper compares
//     (baseline Peach and Peach*),
//   - the experiment harness that regenerates the paper's figures and
//     tables.
//
// # Quickstart
//
//	tgt, _ := peachstar.NewTarget("libmodbus")
//	campaign, _ := peachstar.NewCampaign(peachstar.Options{
//		Target:   tgt,
//		Strategy: peachstar.PeachStar,
//		Seed:     1,
//	})
//	run, _ := campaign.Start(context.Background(), peachstar.RunConfig{Execs: 50000})
//	run.Wait()
//	fmt.Println(campaign.Stats())
//	for _, c := range campaign.Crashes() {
//		fmt.Printf("%s at %s (packet %x)\n", c.Kind, c.Site, c.Example)
//	}
package peachstar

import (
	"fmt"
	"io"
	"reflect"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/coverage"
	"repro/internal/crash"
	"repro/internal/datamodel"
	"repro/internal/fleetnet"
	"repro/internal/pit"
	"repro/internal/sandbox"
	"repro/internal/session"
	"repro/internal/targets"

	// Register the six evaluated protocol targets.
	_ "repro/internal/targets/cs101"
	_ "repro/internal/targets/dnp3"
	_ "repro/internal/targets/iccp"
	_ "repro/internal/targets/iec104"
	_ "repro/internal/targets/iec61850"
	_ "repro/internal/targets/modbus"
)

// Strategy selects the generation strategy of a campaign.
type Strategy = core.Strategy

// The two strategies the paper compares, plus the §VII future-work
// extension pair (byte-level mutation fuzzing, with and without
// coverage-guided packet crack).
const (
	// Peach is the baseline generation-based fuzzing loop.
	Peach = core.StrategyPeach
	// PeachStar adds coverage feedback, packet cracking and
	// semantic-aware generation — the paper's contribution.
	PeachStar = core.StrategyPeachStar
	// MutFuzz is an AFL-style byte-level fuzzer over the same targets.
	MutFuzz = core.StrategyMutation
	// MutFuzzStar adds chunk-aware donation to MutFuzz — the paper's
	// technique ported to a mutation-based fuzzer (§VII).
	MutFuzzStar = core.StrategyMutationStar
)

// Model is a packet data model (the Pit DataModel equivalent).
type Model = datamodel.Model

// Chunk is one construction rule in a data model tree.
type Chunk = datamodel.Chunk

// Target is an instrumented protocol program plus its format specification.
type Target = targets.Target

// Tracer records edge coverage during one execution; custom targets call
// its Hit method at branch points.
type Tracer = coverage.Tracer

// BlockID identifies one instrumented basic block of a custom target.
type BlockID = coverage.BlockID

// Stats is a campaign progress snapshot.
//
// On a multi-worker campaign, Paths is the sum of the workers' local
// valuable-execution counters: discoveries made concurrently by several
// workers within one merge window are counted once per discoverer, so the
// aggregate can exceed what a serial campaign with identical coverage would
// report. Edges is computed from the merged coverage union and is the
// worker-count-independent metric for cross-mode comparisons.
type Stats = core.Stats

// MutatorStat is one mutation operator's adaptive-scheduler accounting
// (Stats.MutatorStats): lifetime trials and new-coverage hits, aggregated
// across models and workers. Populated only on adaptive campaigns.
type MutatorStat = core.MutatorStat

// DefaultMergeEvery is the per-worker execution count between merges of a
// parallel campaign's shared state — the slice granularity driving loops
// should use when advancing a fleet incrementally.
const DefaultMergeEvery = core.DefaultMergeEvery

// CrashRecord is one unique fault found by a campaign.
type CrashRecord = crash.Record

// Puzzle is one corpus entry produced by cracking a valuable packet.
type Puzzle = corpus.Puzzle

// StateModel is a protocol session state machine: which message models may
// be sent in which state, and where sending each one leads. Build one
// directly from States, parse one from a Pit file's <StateModel> element
// (ParsePitDocument), or take a built-in target's via SessionTarget.
type StateModel = session.StateModel

// State is one node of a StateModel.
type State = session.State

// Action is one outgoing transition of a State: the data model it sends
// and the state it leads to.
type Action = session.Action

// SessionTarget is a Target that supports stateful-session fuzzing: it
// publishes its protocol's StateModel and can reset per-connection session
// state between sequences. The built-in IEC104 target implements it.
type SessionTarget = targets.SessionTarget

// StateCoverage is one protocol state's per-state campaign accounting
// (Stats.StateCoverage): messages sent from the state and coverage edges
// first lit by them. Populated only on session campaigns.
type StateCoverage = core.StateCoverage

// PitDocument is a fully parsed Pit file: data models plus any session
// state machines (<StateModel>) that reference them.
type PitDocument = pit.Document

// Options configures a campaign.
type Options struct {
	// Target is the protocol program under test. Use NewTarget for the
	// six built-in projects or provide any targets.Target.
	Target Target
	// Models overrides the target's own model set when non-nil (for
	// fuzzing a built-in target with a custom Pit).
	Models []*Model
	// Strategy selects Peach or PeachStar. The zero value is Peach.
	Strategy Strategy
	// Seed makes the campaign reproducible; equal options and seed give
	// byte-identical campaigns.
	Seed uint64
	// MaxBatch bounds the per-iteration donor product materialization
	// (0 = engine default).
	MaxBatch int
	// Workers shards the campaign across this many parallel worker
	// engines. 0 and 1 both mean serial, which is bit-for-bit identical to
	// a campaign created before this option existed. Each worker owns a
	// fresh target instance and an independent RNG stream split from Seed;
	// workers exchange coverage and puzzles in coarse batches. The measured
	// multi-core speedup is cmd/bench's core.fleet_scaling_x.
	Workers int
	// TargetFactory builds the fresh target instances extra workers need.
	// When nil, the campaign re-instantiates the registered target by its
	// Name(), which covers the six built-in projects; a custom
	// unregistered target must supply a factory to run with Workers > 1.
	TargetFactory func() Target
	// SeedStream offsets the RNG stream indices this campaign's workers
	// draw from the campaign seed: worker i fuzzes stream SeedStream+i.
	// Leave zero for a standalone campaign. In a distributed fleet
	// (DialSync), give each leaf a disjoint range — e.g. leaf k with W
	// workers uses SeedStream k*W — so no two hosts repeat each other's
	// sequences while the whole fleet remains one reproducible campaign.
	SeedStream int
	// Adaptive enables the adaptive scheduler: learned per-model mutator
	// weights, rarity-weighted valuable-seed selection, and periodic
	// corpus distillation. Adaptive campaigns are reproducible for a
	// fixed seed but follow different random streams than non-adaptive
	// ones; with Adaptive false (the default) campaigns are bit-for-bit
	// identical to builds that predate the scheduler. Progress surfaces
	// as Stats.MutatorStats, Stats.Distills, and DistillEvents.
	Adaptive bool
	// Sessions switches the campaign to stateful-session fuzzing: instead
	// of independent single packets, each iteration generates and sends a
	// legal message sequence through the protocol's state machine, with
	// per-state coverage accounting and sequence-level mutation. The state
	// machine is StateModel when non-nil, otherwise the target's own
	// (Options.Target must then be a SessionTarget). Session campaigns are
	// reproducible for a fixed seed; with Sessions false and StateModel nil
	// (the default) campaigns are bit-for-bit identical to builds that
	// predate session fuzzing. Progress surfaces as Stats.Sequences,
	// Stats.StateCoverage, Stats.SeqOpStats, and StateEvents.
	Sessions bool
	// StateModel is the session state machine to fuzz through, implying
	// Sessions when non-nil — for custom targets and Pit-parsed models
	// (ParsePitDocument). Every Action must name a model in the campaign's
	// model set.
	StateModel *StateModel
}

// Campaign is one fuzzing campaign. Drive it with Start: a cancellable
// session with a typed event stream, and the only way to run a campaign.
type Campaign struct {
	cfg   core.Config
	fleet *core.Fleet
	// running guards the one-session-at-a-time invariant of Start.
	running int32
	// digest is the campaign's rule-signature digest, computed once: the
	// identity every checkpoint is sealed under and validated against on
	// restore. It is the digest the fleet sync protocol pins, so
	// "restorable from" and "syncable with" are one compatibility notion.
	digest uint64
}

// NewCampaign validates options and prepares a campaign.
func NewCampaign(opts Options) (*Campaign, error) {
	if opts.Target == nil {
		return nil, fmt.Errorf("peachstar: Options.Target is required")
	}
	models := opts.Models
	if models == nil {
		models = opts.Target.Models()
	}
	sm := opts.StateModel
	if sm == nil && opts.Sessions {
		st, ok := opts.Target.(SessionTarget)
		if !ok {
			return nil, fmt.Errorf("peachstar: Options.Sessions needs a state machine: target %q is not a SessionTarget and Options.StateModel is nil",
				opts.Target.Name())
		}
		sm = st.StateModel()
	}
	// The target factory is resolved only when extra workers actually need
	// one, so serial campaigns never probe the registry.
	var factory func() sandbox.Target
	if opts.Workers > 1 {
		factory = targetFactory(opts)
		if factory == nil {
			return nil, fmt.Errorf("peachstar: Workers=%d needs Options.TargetFactory: target %q is not (an instance of) a registered target",
				opts.Workers, opts.Target.Name())
		}
	}
	cfg := core.Config{
		Models:   models,
		Target:   opts.Target,
		Strategy: opts.Strategy,
		Seed:     opts.Seed,
		MaxBatch: opts.MaxBatch,
		Adaptive: opts.Adaptive,
		Session:  sm,
	}
	fleet, err := core.NewFleet(cfg, core.ParallelConfig{
		Workers:    opts.Workers,
		NewTarget:  factory,
		SeedStream: opts.SeedStream,
	})
	if err != nil {
		return nil, err
	}
	return &Campaign{cfg: cfg, fleet: fleet, digest: fleetnet.ModelDigest(opts.Target.Name(), models)}, nil
}

// targetFactory resolves how extra workers obtain fresh target instances:
// the explicit Options.TargetFactory, or re-instantiation through the target
// registry when the campaign's target actually is the registered one — a
// custom type that merely shares a registered name must not be silently
// replaced by the registry target on workers 2..N, so it requires an
// explicit factory. Returns nil when neither applies.
func targetFactory(opts Options) func() sandbox.Target {
	if f := opts.TargetFactory; f != nil {
		return func() sandbox.Target { return f() }
	}
	name := opts.Target.Name()
	probe, err := targets.New(name)
	if err != nil || reflect.TypeOf(probe) != reflect.TypeOf(opts.Target) {
		return nil
	}
	return func() sandbox.Target {
		t, err := targets.New(name)
		if err != nil {
			panic(fmt.Sprintf("peachstar: target %q vanished from registry: %v", name, err))
		}
		return t
	}
}

// Workers returns the campaign's parallelism.
func (c *Campaign) Workers() int { return c.fleet.Workers() }

// Execs returns the total executions performed so far, without the merge
// work a full Stats snapshot does — for budget arithmetic in driving loops.
func (c *Campaign) Execs() int { return c.fleet.Execs() }

// Step performs one engine iteration and returns how many executions it
// spent — the granularity used for paths-over-time sampling. On a parallel
// campaign it advances only the first worker; use Start to drive the whole
// fleet.
func (c *Campaign) Step() int { return c.fleet.Step() }

// Stats returns the current progress snapshot, aggregated across workers.
func (c *Campaign) Stats() Stats { return c.fleet.Stats() }

// Crashes returns the unique faults found so far, in discovery order,
// deduplicated across workers.
func (c *Campaign) Crashes() []*CrashRecord { return c.fleet.Crashes().Records() }

// CorpusSize returns the number of puzzles currently stored.
func (c *Campaign) CorpusSize() int { return c.fleet.Corpus().Len() }

// CorpusSignatures lists the construction-rule signatures present in the
// puzzle corpus — a view into what packet cracking has learned.
func (c *Campaign) CorpusSignatures() []string { return c.fleet.Corpus().Signatures() }

// NewTarget instantiates one of the registered protocol targets by its
// project name: "libmodbus", "IEC104", "libiec61850", "lib60870",
// "libiccp", or "opendnp3".
func NewTarget(name string) (Target, error) { return targets.New(name) }

// TargetNames lists the registered protocol targets.
func TargetNames() []string { return targets.Names() }

// ParsePit reads an XML Pit format specification into data models.
func ParsePit(r io.Reader) ([]*Model, error) { return pit.Parse(r) }

// ParsePitString is ParsePit over an in-memory document.
func ParsePitString(s string) ([]*Model, error) { return pit.ParseString(s) }

// ParsePitDocument reads an XML Pit specification into both halves: the
// data models and any <StateModel> session state machines referencing
// them. Feed a parsed state machine to Options.StateModel for a session
// campaign over the document's models.
func ParsePitDocument(r io.Reader) (*PitDocument, error) { return pit.ParseDocument(r) }

// ParsePitDocumentString is ParsePitDocument over an in-memory document.
func ParsePitDocumentString(s string) (*PitDocument, error) { return pit.ParseDocumentString(s) }

// Blocks pre-computes n deterministic instrumentation block IDs for a named
// region of a custom target — the explicit-hook stand-in for the paper's
// LLVM instrumentation pass (see package targets).
func Blocks(name string, n int) []BlockID { return coverage.Blocks(name, n) }

// Checksum computes one of the supported checksum algorithms, for targets
// that validate integrity fields themselves.
func Checksum(kind datamodel.FixKind, data []byte) uint64 {
	return datamodel.Checksum(kind, data)
}
