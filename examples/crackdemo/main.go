// Crackdemo: a guided tour of the paper's core mechanism — coverage-guided
// packet crack and generation — without running a fuzzing campaign.
//
// It walks the three steps of §IV on the lib60870 (CS101) models:
//
//  1. a "valuable" packet is cracked against the data-model set
//     (Algorithm 2), printing the instantiation tree,
//
//  2. the resulting puzzles are shown with their construction-rule
//     signatures (Definition 2),
//
//  3. a new packet for a *different* opcode is assembled with donated
//     puzzles and repaired by File Fixup (Algorithm 3, §IV-D).
//
//     go run ./examples/crackdemo
package main

import (
	"fmt"
	"log"

	"repro/peachstar"
)

func main() {
	target, err := peachstar.NewTarget("lib60870")
	if err != nil {
		log.Fatal(err)
	}
	models := target.Models()

	// Step 0: produce a packet with one model — in a live campaign this
	// would be a generated seed that triggered new coverage.
	var single, setpoint *peachstar.Model
	for _, m := range models {
		switch m.Name {
		case "SinglePointInfo":
			single = m
		case "SetpointScaled":
			setpoint = m
		}
	}
	valuable := single.Generate()
	packet := valuable.Bytes()
	fmt.Printf("valuable packet (%s): %x\n", single.Name, packet)

	// Step 1: crack it against every model of the specification
	// (Algorithm 2's PARSE + LEGAL loop).
	fmt.Println("\ncracking against the model set:")
	for _, m := range models {
		ins, err := m.Crack(packet)
		if err != nil {
			fmt.Printf("  %-18s rejected: %v\n", m.Name, err)
			continue
		}
		fmt.Printf("  %-18s LEGAL -> %s\n", m.Name, ins)
	}

	// Step 2: the puzzles. Every leaf of the instantiation tree is one
	// donor-able piece; interior nodes contribute composed puzzles.
	ins, err := single.Crack(packet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npuzzles cracked from the packet (leaf chunks):")
	for _, leaf := range ins.Leaves(nil) {
		fmt.Printf("  %-12s %-28s data=%x\n",
			leaf.Chunk.Name, peachstar.RuleSignature(leaf.Chunk), leaf.Data)
	}

	// Step 3: semantic-aware generation. Donate the cracked "objects"
	// payload into the SetpointScaled model — a different opcode whose
	// objects chunk conforms to the same construction rule (§III) — and
	// let File Fixup re-establish the frame's two length octets and its
	// checksum.
	donor := ins.Find("objects")
	recipient := setpoint.Generate()
	fmt.Printf("\nrecipient before donation (%s): %x\n", setpoint.Name, recipient.Bytes())
	recipient.Find("objects").Data = append([]byte(nil), donor.Data...)
	setpoint.ApplyFixups(recipient) // File Fixup (§IV-D)
	fmt.Printf("recipient after donation+fixup:  %x\n", recipient.Bytes())

	// The donated packet is legal: it cracks against its own model.
	if _, err := setpoint.Crack(recipient.Bytes()); err != nil {
		log.Fatalf("donated packet is not legal: %v", err)
	}
	fmt.Println("\ndonated packet cracks cleanly: lengths and checksum were repaired")
}
