// Package cs101 reimplements the packet-processing core of lib60870
// (mz-automation) — the IEC 60870-5-101 balanced link layer plus the CS101
// ASDU layer — as an instrumented fuzzing target (paper §V-A, Fig. 4(d),
// Table I).
//
// CS101 frames come in two shapes: fixed-length frames (0x10 start) for
// link control, and variable-length frames (0x68 L L 0x68) carrying an
// ASDU, both closed by a modular-sum checksum and the 0x16 stop byte.
//
// Seeded vulnerabilities (matching Table I's lib60870 row — 3 SEGV):
//
//  1. CS101_ASDU_getCOT reads asdu[2] without verifying the ASDU length —
//     the literal bug of the paper's Listing 1/2, reproduced as an
//     unchecked slice index (a native Go fault executor.InProc classifies as
//     SEGV, matching the ASan report).
//  2. CS101_ASDU_getCA reads the two common-address octets without a
//     length check, reachable when the header is truncated one field
//     later than (1).
//  3. The C_SE_NB (set-point command, scaled) element decoder trusts the
//     VSQ object count and reads past a short information-object section.
package cs101

import (
	"repro/internal/coverage"
	"repro/internal/targets"
)

// ASDU type identifiers decoded by the slave.
const (
	typeMSpNa = 1   // single point information
	typeMMeNb = 11  // measured value, scaled
	typeCScNa = 45  // single command
	typeCSeNb = 49  // set-point command, scaled value
	typeCIcNa = 100 // general interrogation
)

// Link function codes (fixed frames, primary to secondary).
const (
	fcResetRemoteLink = 0
	fcTestLink        = 2
	fcReqStatus       = 9
	fcReqClass1       = 10
	fcReqClass2       = 11
)

// Slave is the instrumented lib60870 CS101 slave core.
type Slave struct {
	id []coverage.BlockID // immutable block identity wired at construction

	linkReset bool
	fcb       bool // frame count bit tracking
	points    [64]bool
	scaled    [64]int16
	setpoints [64]int16
	lastCOT   byte
	bitext    extendedState
}

// New returns a fresh slave with the link not yet reset.
func New() *Slave {
	return &Slave{id: coverage.Blocks("lib60870", 96)}
}

// Name implements targets.Target.
func (s *Slave) Name() string { return "lib60870" }

func (s *Slave) hit(tr *coverage.Tracer, n int) { tr.Hit(s.id[n]) }

// Handle implements targets.Target: link-layer framing, then ASDU handling
// for variable frames.
func (s *Slave) Handle(tr *coverage.Tracer, pkt []byte) {
	s.hit(tr, 0)
	if len(pkt) == 0 {
		s.hit(tr, 1)
		return
	}
	switch pkt[0] {
	case 0x10:
		s.hit(tr, 2)
		s.fixedFrame(tr, pkt)
	case 0x68:
		s.hit(tr, 3)
		s.variableFrame(tr, pkt)
	default:
		s.hit(tr, 4)
	}
}

// fixedFrame parses 0x10 | control | address | checksum | 0x16.
func (s *Slave) fixedFrame(tr *coverage.Tracer, pkt []byte) {
	if len(pkt) != 5 {
		s.hit(tr, 5)
		return
	}
	if pkt[4] != 0x16 {
		s.hit(tr, 6)
		return
	}
	if pkt[3] != pkt[1]+pkt[2] {
		s.hit(tr, 7)
		return
	}
	ctrl := pkt[1]
	fc := ctrl & 0x0F
	switch fc {
	case fcResetRemoteLink:
		s.hit(tr, 8)
		s.linkReset = true
		s.fcb = false
	case fcTestLink:
		s.hit(tr, 9)
	case fcReqStatus:
		s.hit(tr, 10)
	case fcReqClass1, fcReqClass2:
		if !s.linkReset {
			s.hit(tr, 11)
			return
		}
		s.hit(tr, 12)
	default:
		s.hit(tr, 13)
	}
}

// variableFrame parses 0x68 L L 0x68 | control | address | ASDU | ck | 0x16.
func (s *Slave) variableFrame(tr *coverage.Tracer, pkt []byte) {
	if len(pkt) < 6 {
		s.hit(tr, 14)
		return
	}
	l1, l2 := int(pkt[1]), int(pkt[2])
	if l1 != l2 || pkt[3] != 0x68 {
		s.hit(tr, 15)
		return
	}
	// L counts control + address + ASDU.
	if len(pkt) != 4+l1+2 {
		s.hit(tr, 16)
		return
	}
	body := pkt[4 : 4+l1]
	ck := pkt[4+l1]
	if pkt[5+l1] != 0x16 {
		s.hit(tr, 17)
		return
	}
	var sum byte
	for _, b := range body {
		sum += b
	}
	if sum != ck {
		s.hit(tr, 18)
		return
	}
	if len(body) < 2 {
		s.hit(tr, 19)
		return
	}
	if !s.linkReset {
		s.hit(tr, 20)
		return
	}
	s.hit(tr, 21)
	s.handleASDU(tr, body[2:])
}

// getCOT is CS101_ASDU_getCOT from the paper's Listing 1, defect included:
// the cause-of-transmission octet is read without verifying that the ASDU
// is long enough. A truncated ASDU faults here (Listing 2's SEGV).
func getCOT(asdu []byte) byte {
	// BUG(seeded, Table I lib60870 SEGV #1): no length verification.
	return asdu[2] & 0x3F
}

// getCA is CS101_ASDU_getCA, with the sibling defect one field later: the
// two common-address octets are read unchecked.
func getCA(asdu []byte) uint16 {
	// BUG(seeded, Table I lib60870 SEGV #2): no length verification.
	return uint16(asdu[4]) | uint16(asdu[5])<<8
}

// handleASDU decodes the ASDU header and dispatches per type id, following
// lib60870's CS101_ASDU_createFromBuffer + handler layering.
func (s *Slave) handleASDU(tr *coverage.Tracer, asdu []byte) {
	if len(asdu) == 0 {
		s.hit(tr, 22)
		return
	}
	typeID := asdu[0]
	// Unknown type ids are rejected before header decoding — so the
	// unchecked reads below are only reachable through plausible ASDUs,
	// like the real bug.
	known := map[byte]bool{
		typeMSpNa: true, typeMMeNb: true, typeCScNa: true,
		typeCSeNb: true, typeCIcNa: true, typeMBoNa: true,
		typeCDcNa: true, typeCSeNa: true, typePAcNa: true,
	}
	if !known[typeID] {
		s.hit(tr, 23)
		return
	}
	s.hit(tr, 24)
	cot := getCOT(asdu) // faults on len < 3
	ca := getCA(asdu)   // faults on len < 6
	s.lastCOT = cot
	if ca == 0 {
		s.hit(tr, 25)
		return
	}
	if cot == 0 || cot > 47 {
		s.hit(tr, 26)
		return
	}
	vsq := asdu[1]
	n := int(vsq & 0x7F)
	body := asdu[6:]
	switch typeID {
	case typeMSpNa:
		s.hit(tr, 27)
		s.decodePoints(tr, body, n)
	case typeMMeNb:
		s.hit(tr, 28)
		s.decodeScaled(tr, body, n)
	case typeCScNa:
		s.hit(tr, 29)
		s.singleCommand(tr, body, cot)
	case typeCSeNb:
		s.hit(tr, 30)
		s.setpointScaled(tr, body, n, cot)
	case typeCIcNa:
		s.hit(tr, 31)
		s.interrogation(tr, body, cot)
	default:
		s.dispatchExtended(tr, typeID, body, n, cot)
	}
}

func ioa(b []byte) int { return int(b[0]) | int(b[1])<<8 | int(b[2])<<16 }

// decodePoints parses single-point objects (IOA + SIQ), bounds-checked —
// this path is sound in lib60870.
func (s *Slave) decodePoints(tr *coverage.Tracer, body []byte, n int) {
	if len(body) < 4*n {
		s.hit(tr, 32)
		return
	}
	for i := 0; i < n; i++ {
		obj := body[4*i:]
		a := ioa(obj)
		if a < len(s.points) {
			s.hit(tr, 33)
			s.points[a] = obj[3]&1 != 0
		} else {
			s.hit(tr, 34)
		}
	}
}

// decodeScaled parses measured scaled values (IOA + value + QDS), also
// bounds-checked.
func (s *Slave) decodeScaled(tr *coverage.Tracer, body []byte, n int) {
	if len(body) < 6*n {
		s.hit(tr, 35)
		return
	}
	for i := 0; i < n; i++ {
		obj := body[6*i:]
		a := ioa(obj)
		v := int16(uint16(obj[3]) | uint16(obj[4])<<8)
		if a < len(s.scaled) {
			s.hit(tr, 36)
			s.scaled[a] = v
		}
	}
}

// singleCommand executes C_SC_NA commands.
func (s *Slave) singleCommand(tr *coverage.Tracer, body []byte, cot byte) {
	if len(body) < 4 {
		s.hit(tr, 37)
		return
	}
	if cot != 6 {
		s.hit(tr, 38)
		return
	}
	a := ioa(body)
	if a >= len(s.points) {
		s.hit(tr, 39)
		return
	}
	s.hit(tr, 40)
	s.points[a] = body[3]&1 != 0
}

// setpointScaled decodes C_SE_NB set-point commands. The element loop
// trusts the VSQ count — the third seeded fault.
func (s *Slave) setpointScaled(tr *coverage.Tracer, body []byte, n int, cot byte) {
	if cot != 6 {
		s.hit(tr, 41)
		return
	}
	s.hit(tr, 42)
	for i := 0; i < n; i++ {
		// BUG(seeded, Table I lib60870 SEGV #3): no bounds check
		// against len(body); a VSQ count larger than the carried
		// objects walks off the frame.
		obj := body[6*i : 6*i+6]
		a := ioa(obj)
		v := int16(uint16(obj[3]) | uint16(obj[4])<<8)
		qos := obj[5]
		if qos&0x80 != 0 { // select
			s.hit(tr, 43)
			continue
		}
		if a < len(s.setpoints) {
			s.hit(tr, 44)
			s.setpoints[a] = v
		}
	}
}

// interrogation handles C_IC_NA.
func (s *Slave) interrogation(tr *coverage.Tracer, body []byte, cot byte) {
	if len(body) < 4 {
		s.hit(tr, 45)
		return
	}
	if cot != 6 {
		s.hit(tr, 46)
		return
	}
	if body[3] == 20 {
		s.hit(tr, 47)
	} else {
		s.hit(tr, 48)
	}
}

func init() {
	targets.Register("lib60870", func() targets.Target { return New() })
}
