package session

import "fmt"

// Valid reports whether the sequence is a legal walk of sm from its
// initial state: every step's (State, Action) indices in range, each
// step sent from the state the walk is actually in.
func (sm *StateModel) Valid(s Sequence) error {
	cur := sm.Initial
	for i, st := range s.Steps {
		if st.State != cur {
			return fmt.Errorf("session: step %d sent from state %d, walk is in state %d", i, st.State, cur)
		}
		if st.State < 0 || st.State >= len(sm.States) {
			return fmt.Errorf("session: step %d state %d out of range", i, st.State)
		}
		acts := sm.States[st.State].Actions
		if st.Action < 0 || st.Action >= len(acts) {
			return fmt.Errorf("session: step %d action %d out of range for state %d", i, st.Action, st.State)
		}
		cur = acts[st.Action].Next
	}
	return nil
}
