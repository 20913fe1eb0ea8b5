package pit

import (
	"reflect"
	"strings"
	"testing"
)

const statefulPit = `
<Pit>
  <DataModel name="StartDT">
    <Number name="start" size="8" value="0x68" token="true"/>
    <Number name="ctrl" size="8" value="0x07"/>
  </DataModel>
  <DataModel name="Read">
    <Number name="start" size="8" value="0x68" token="true"/>
    <Blob name="body" minSize="0" maxSize="8"/>
  </DataModel>
  <StateModel name="Session" initialState="stopped" maxSteps="6">
    <State name="stopped">
      <Action type="output" ref="StartDT" next="started"/>
    </State>
    <State name="started">
      <Action type="output" ref="Read"/>
      <Action type="output" ref="StartDT" next="stopped"/>
    </State>
  </StateModel>
</Pit>`

func TestParseDocumentStateModel(t *testing.T) {
	doc, err := ParseDocument(strings.NewReader(statefulPit))
	if err != nil {
		t.Fatalf("ParseDocument: %v", err)
	}
	if len(doc.Models) != 2 {
		t.Fatalf("models = %d, want 2", len(doc.Models))
	}
	if len(doc.StateModels) != 1 {
		t.Fatalf("state models = %d, want 1", len(doc.StateModels))
	}
	sm := doc.StateModels[0]
	if sm.Name != "Session" || sm.MaxSteps != 6 {
		t.Fatalf("got %q maxSteps=%d", sm.Name, sm.MaxSteps)
	}
	names := make([]string, len(sm.States))
	for i, st := range sm.States {
		names[i] = st.Name
	}
	if !reflect.DeepEqual(names, []string{"stopped", "started"}) {
		t.Fatalf("states = %q, want stopped, started", names)
	}
	if sm.Initial != 0 {
		t.Fatalf("initial = %d, want stopped", sm.Initial)
	}
	started := 1
	acts := sm.States[sm.Initial].Actions
	if len(acts) != 1 || acts[0].Model != "StartDT" || acts[0].Next != started {
		t.Fatalf("stopped actions wrong: %+v", acts)
	}
	// Omitted next= self-loops.
	if got := sm.States[started].Actions[0]; got.Model != "Read" || got.Next != started {
		t.Fatalf("started self-loop wrong: %+v", got)
	}
	if err := sm.Validate(); err != nil {
		t.Fatalf("parsed model invalid: %v", err)
	}
}

func TestParseDocumentStateModelErrors(t *testing.T) {
	cases := []struct{ name, fragment, want string }{
		{"bad-ref", `<State name="a"><Action ref="NoSuch"/></State>`, "not a declared DataModel"},
		{"bad-next", `<State name="a"><Action ref="StartDT" next="nowhere"/></State>`, "not a declared state"},
		{"bad-type", `<State name="a"><Action type="input" ref="StartDT"/></State>`, "unsupported type"},
		{"no-ref", `<State name="a"><Action/></State>`, "missing ref"},
		{"dup-state", `<State name="a"><Action ref="StartDT"/></State><State name="a"/>`, "duplicate state"},
	}
	for _, tc := range cases {
		doc := `<Pit><DataModel name="StartDT"><Number name="n" size="8"/></DataModel>` +
			`<StateModel name="SM">` + tc.fragment + `</StateModel></Pit>`
		_, err := ParseDocument(strings.NewReader(doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	if _, err := ParseDocument(strings.NewReader(`<Pit><DataModel name="D"><Number name="n" size="8"/></DataModel>` +
		`<StateModel name="SM" initialState="ghost"><State name="a"><Action ref="D"/></State></StateModel></Pit>`)); err == nil {
		t.Fatalf("undeclared initialState accepted")
	}
}
