package pit

import (
	"fmt"
	"io"

	"repro/internal/datamodel"
	"repro/internal/session"
)

// The <StateModel> dialect, alongside <DataModel>:
//
//	<StateModel name="Session" initialState="stopped" maxSteps="8">
//	  <State name="stopped">
//	    <Action type="output" ref="StartDT" next="started"/>
//	  </State>
//	  <State name="started">
//	    <Action type="output" ref="ReadCommand"/>
//	  </State>
//	</StateModel>
//
// An Action's ref names a DataModel in the same document; next names the
// destination state and defaults to the current state (self-loop), which
// matches how Peach pits model "send and stay". Only output actions are
// supported — the engine fuzzes what it sends.

// xmlStateModel mirrors a <StateModel> element.
type xmlStateModel struct {
	Name     string     `xml:"name,attr"`
	Initial  string     `xml:"initialState,attr"`
	MaxSteps string     `xml:"maxSteps,attr"`
	States   []xmlState `xml:"State"`
}

type xmlState struct {
	Name    string      `xml:"name,attr"`
	Actions []xmlAction `xml:"Action"`
}

type xmlAction struct {
	Type string `xml:"type,attr"`
	Ref  string `xml:"ref,attr"`
	Next string `xml:"next,attr"`
}

// Document is a fully parsed Pit file: the data models plus any session
// state machines that reference them.
type Document struct {
	Models      []*datamodel.Model
	StateModels []*session.StateModel
}

// ParseDocument reads a Pit document and returns both halves, validated:
// the data models and the <StateModel> elements, whose every Action ref
// must resolve to a DataModel declared in the same document.
func ParseDocument(r io.Reader) (*Document, error) {
	var doc xmlPit
	if err := decodePit(r, &doc); err != nil {
		return nil, err
	}
	models, err := convertModels(&doc)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(models))
	for _, m := range models {
		known[m.Name] = true
	}
	out := &Document{Models: models}
	for i := range doc.StateModels {
		sm, err := convertStateModel(&doc.StateModels[i], known)
		if err != nil {
			return nil, err
		}
		out.StateModels = append(out.StateModels, sm)
	}
	return out, nil
}

// convertStateModel maps one <StateModel> element onto a session model.
func convertStateModel(x *xmlStateModel, knownModels map[string]bool) (*session.StateModel, error) {
	if x.Name == "" {
		return nil, fmt.Errorf("pit: StateModel has no name")
	}
	sm := &session.StateModel{Name: x.Name}
	if x.MaxSteps != "" {
		n, err := atoiDefault(x.MaxSteps, 0)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("pit: StateModel %s: bad maxSteps %q", x.Name, x.MaxSteps)
		}
		sm.MaxSteps = n
	}
	index := make(map[string]int, len(x.States))
	for i, st := range x.States {
		if st.Name == "" {
			return nil, fmt.Errorf("pit: StateModel %s: state %d has no name", x.Name, i)
		}
		if _, dup := index[st.Name]; dup {
			return nil, fmt.Errorf("pit: StateModel %s: duplicate state %q", x.Name, st.Name)
		}
		index[st.Name] = i
		sm.States = append(sm.States, session.State{Name: st.Name})
	}
	if x.Initial == "" {
		sm.Initial = 0
	} else {
		i, ok := index[x.Initial]
		if !ok {
			return nil, fmt.Errorf("pit: StateModel %s: initialState %q is not a declared state", x.Name, x.Initial)
		}
		sm.Initial = i
	}
	for si, st := range x.States {
		for ai, a := range st.Actions {
			if a.Type != "" && a.Type != "output" {
				return nil, fmt.Errorf("pit: StateModel %s: state %q action %d: unsupported type %q (only output)", x.Name, st.Name, ai, a.Type)
			}
			if a.Ref == "" {
				return nil, fmt.Errorf("pit: StateModel %s: state %q action %d: missing ref", x.Name, st.Name, ai)
			}
			if !knownModels[a.Ref] {
				return nil, fmt.Errorf("pit: StateModel %s: state %q action %d: ref %q is not a declared DataModel", x.Name, st.Name, ai, a.Ref)
			}
			next := si
			if a.Next != "" {
				n, ok := index[a.Next]
				if !ok {
					return nil, fmt.Errorf("pit: StateModel %s: state %q action %d: next %q is not a declared state", x.Name, st.Name, ai, a.Next)
				}
				next = n
			}
			sm.States[si].Actions = append(sm.States[si].Actions, session.Action{Model: a.Ref, Next: next})
		}
	}
	if err := sm.Validate(); err != nil {
		return nil, fmt.Errorf("pit: %w", err)
	}
	return sm, nil
}
