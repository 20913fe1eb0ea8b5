// Package session models protocol sessions for stateful fuzzing: a
// Peach-pit-style state machine (states × transitions × which data model
// each transition sends), message sequences that walk it, sequence-level
// mutation operators (splice/reorder/drop/truncate at message
// granularity), and a versioned binary codec so sequences ride the corpus
// journal and fleetnet sync losslessly.
//
// The package is deliberately engine-agnostic: it knows data models only
// by name, consumes randomness only through *rng.RNG (so every operator
// draws a deterministic, countable number of values), and leaves payload
// bytes opaque. internal/core owns payload generation and coverage
// accounting; internal/pit parses <StateModel> elements into these types.
package session

import (
	"fmt"

	"repro/internal/rng"
)

// DefaultMaxSteps bounds generated walks when StateModel.MaxSteps is 0.
const DefaultMaxSteps = 8

// Action is one outgoing transition of a state: sending a message built
// from the named data model moves the session to the Next state.
type Action struct {
	// Model names the data model whose instance this transition sends.
	Model string
	// Next is the index of the destination state in StateModel.States.
	Next int
}

// State is one node of the session state machine.
type State struct {
	// Name identifies the state in pit files, events, and coverage stats.
	Name string
	// Actions are the transitions available from this state. A state with
	// no actions is terminal: walks stop there.
	Actions []Action
}

// StateModel is a protocol session state machine: which message (data
// model) may be sent from which state, and where sending it leads.
type StateModel struct {
	// Name identifies the model; it namespaces sequence corpus entries.
	Name string
	// Initial is the index of the start state in States.
	Initial int
	// States is the node list; Action.Next and Initial index into it.
	States []State
	// MaxSteps caps generated walk length; 0 means DefaultMaxSteps.
	MaxSteps int
}

// WalkCap returns the effective walk-length bound.
func (sm *StateModel) WalkCap() int {
	if sm.MaxSteps > 0 {
		return sm.MaxSteps
	}
	return DefaultMaxSteps
}

// Validate checks structural sanity: at least one state, indices in
// range, unique state names, every action naming a non-empty model, and
// at least one action somewhere (a machine that can never send a message
// cannot drive a fuzzing campaign).
func (sm *StateModel) Validate() error {
	if sm.Name == "" {
		return fmt.Errorf("session: state model has no name")
	}
	if len(sm.States) == 0 {
		return fmt.Errorf("session: state model %q has no states", sm.Name)
	}
	if sm.Initial < 0 || sm.Initial >= len(sm.States) {
		return fmt.Errorf("session: state model %q initial state %d out of range", sm.Name, sm.Initial)
	}
	seen := make(map[string]bool, len(sm.States))
	anyAction := false
	for si := range sm.States {
		st := &sm.States[si]
		if st.Name == "" {
			return fmt.Errorf("session: state model %q: state %d has no name", sm.Name, si)
		}
		if seen[st.Name] {
			return fmt.Errorf("session: state model %q: duplicate state %q", sm.Name, st.Name)
		}
		seen[st.Name] = true
		for ai := range st.Actions {
			a := &st.Actions[ai]
			if a.Model == "" {
				return fmt.Errorf("session: state model %q: state %q action %d names no data model", sm.Name, st.Name, ai)
			}
			if a.Next < 0 || a.Next >= len(sm.States) {
				return fmt.Errorf("session: state model %q: state %q action %d next state %d out of range", sm.Name, st.Name, ai, a.Next)
			}
			anyAction = true
		}
	}
	if !anyAction {
		return fmt.Errorf("session: state model %q has no actions", sm.Name)
	}
	return nil
}

// Step is one message of a sequence: the state it was sent from, which of
// that state's actions was taken, and the rendered payload.
type Step struct {
	// State indexes StateModel.States.
	State int
	// Action indexes States[State].Actions.
	Action int
	// Data is the rendered message payload.
	Data []byte
}

// Sequence is an ordered run of messages over one protocol session.
type Sequence struct {
	Steps []Step
}

// Clone deep-copies the sequence, including payload bytes, so the copy
// survives arena resets and later in-place mutation of the original.
func (s Sequence) Clone() Sequence {
	if len(s.Steps) == 0 {
		return Sequence{}
	}
	cp := make([]Step, len(s.Steps))
	for i, st := range s.Steps {
		st.Data = append([]byte(nil), st.Data...)
		cp[i] = st
	}
	return Sequence{Steps: cp}
}

// Repair rewrites the sequence in place into a legal walk of sm. It
// walks from the initial state; each step keeps its *intent* (the data
// model its original action sent) and is re-anchored onto the first
// action of the current state that sends the same model. Steps whose
// intent has no counterpart in the current state — or whose indices are
// out of range — are dropped. The result is always a legal walk.
func (sm *StateModel) Repair(s *Sequence) {
	cur := sm.Initial
	kept := s.Steps[:0]
	for _, st := range s.Steps {
		if st.State < 0 || st.State >= len(sm.States) {
			continue
		}
		acts := sm.States[st.State].Actions
		if st.Action < 0 || st.Action >= len(acts) {
			continue
		}
		want := acts[st.Action].Model
		found := -1
		for ai, a := range sm.States[cur].Actions {
			if a.Model == want {
				found = ai
				break
			}
		}
		if found < 0 {
			continue
		}
		st.State = cur
		st.Action = found
		cur = sm.States[cur].Actions[found].Next
		kept = append(kept, st)
	}
	s.Steps = kept
}

// Sequence-level mutation operator identifiers, in pick order. They are
// scheduled through the adaptive-credit machinery in internal/core just
// like byte-level mutators, so campaigns learn which granularity pays.
const (
	// OpSplice grafts a suffix of a donor sequence onto a prefix of the
	// base, then repairs the join.
	OpSplice = iota
	// OpReorder swaps two steps, then repairs.
	OpReorder
	// OpDrop removes one step, then repairs.
	OpDrop
	// OpTruncate keeps a strict prefix.
	OpTruncate
	// NumOps is the number of sequence operators.
	NumOps
)

// OpName returns a short stable label for a sequence operator.
func OpName(op int) string {
	switch op {
	case OpSplice:
		return "seq-splice"
	case OpReorder:
		return "seq-reorder"
	case OpDrop:
		return "seq-drop"
	case OpTruncate:
		return "seq-truncate"
	}
	return fmt.Sprintf("seq-op%d", op)
}

// Splice grafts a random suffix of donor onto a random prefix of base
// and repairs the result against sm. Draws exactly two values.
func Splice(r *rng.RNG, sm *StateModel, base *Sequence, donor Sequence) {
	cut := r.Intn(len(base.Steps) + 1)
	from := 0
	if len(donor.Steps) > 0 {
		from = r.Intn(len(donor.Steps))
	} else {
		r.Intn(1) // keep the draw count shape-independent
	}
	merged := make([]Step, 0, cut+len(donor.Steps)-from)
	merged = append(merged, base.Steps[:cut]...)
	merged = append(merged, donor.Steps[from:]...)
	base.Steps = merged
	sm.Repair(base)
}

// Reorder swaps two randomly chosen steps and repairs. Draws exactly two
// values.
func Reorder(r *rng.RNG, sm *StateModel, s *Sequence) {
	n := len(s.Steps)
	if n == 0 {
		r.Intn(1)
		r.Intn(1)
		return
	}
	i, j := r.Intn(n), r.Intn(n)
	s.Steps[i], s.Steps[j] = s.Steps[j], s.Steps[i]
	sm.Repair(s)
}

// Drop removes one randomly chosen step and repairs. Draws exactly one
// value.
func Drop(r *rng.RNG, sm *StateModel, s *Sequence) {
	n := len(s.Steps)
	if n == 0 {
		r.Intn(1)
		return
	}
	i := r.Intn(n)
	s.Steps = append(s.Steps[:i], s.Steps[i+1:]...)
	sm.Repair(s)
}

// Truncate keeps a random non-empty prefix (a strict prefix of a legal
// walk is itself legal, so no repair is needed). Draws exactly one value.
func Truncate(r *rng.RNG, sm *StateModel, s *Sequence) {
	n := len(s.Steps)
	if n <= 1 {
		r.Intn(1)
		return
	}
	keep := 1 + r.Intn(n-1)
	s.Steps = s.Steps[:keep]
}

// Apply runs one sequence operator on base. donor is consulted only by
// OpSplice; passing the zero Sequence is fine.
func Apply(r *rng.RNG, sm *StateModel, op int, base *Sequence, donor Sequence) {
	switch op {
	case OpSplice:
		Splice(r, sm, base, donor)
	case OpReorder:
		Reorder(r, sm, base)
	case OpDrop:
		Drop(r, sm, base)
	case OpTruncate:
		Truncate(r, sm, base)
	}
}
