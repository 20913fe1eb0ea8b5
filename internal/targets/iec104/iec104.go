// Package iec104 reimplements the packet-processing core of the IEC104
// project (github.com/airpig2011/IEC104) — an IEC 60870-5-104 slave — as an
// instrumented fuzzing target (paper §V-A, Fig. 4(b)).
//
// IEC 60870-5-104 frames an APCI (start byte 0x68, length, four control
// octets) optionally followed by an ASDU. The control octets select I, S or
// U format; U frames drive the connection state machine (STARTDT / STOPDT /
// TESTFR), and I frames carry ASDUs whose type id selects the payload
// decoding. This is the smallest of the six evaluated projects — the paper
// reports only dozens of paths for it — and it carries no Table I
// vulnerabilities, which this reproduction mirrors.
package iec104

import (
	"repro/internal/coverage"
	"repro/internal/targets"
)

// ASDU type identifiers handled by the slave (the subset the reference
// implementation decodes).
const (
	typeMSpNa = 1   // M_SP_NA_1 single point information
	typeMMeNa = 9   // M_ME_NA_1 measured value, normalized
	typeCScNa = 45  // C_SC_NA_1 single command
	typeCIcNa = 100 // C_IC_NA_1 general interrogation
	typeCCsNa = 103 // C_CS_NA_1 clock synchronization
)

// Slave is the instrumented IEC104 station core.
type Slave struct {
	id []coverage.BlockID // immutable block identity wired at construction

	started  bool // STARTDT received
	vr, vs   uint16
	points   [64]bool
	measured [64]uint16
	lastCOT  byte
	ext      extendedState
}

// New returns a fresh slave in the stopped state.
func New() *Slave {
	return &Slave{id: coverage.Blocks("iec104", 96)}
}

// Name implements targets.Target.
func (s *Slave) Name() string { return "IEC104" }

func (s *Slave) hit(tr *coverage.Tracer, n int) { tr.Hit(s.id[n]) }

// Handle implements targets.Target: APCI validation, frame-format dispatch,
// ASDU decoding.
func (s *Slave) Handle(tr *coverage.Tracer, pkt []byte) {
	s.hit(tr, 0)
	if len(pkt) < 6 {
		s.hit(tr, 1)
		return
	}
	if pkt[0] != 0x68 {
		s.hit(tr, 2)
		return
	}
	// APCI length counts everything after the length octet.
	if int(pkt[1]) != len(pkt)-2 {
		s.hit(tr, 3)
		return
	}
	ctrl1 := pkt[2]
	switch {
	case ctrl1&0x01 == 0: // I format
		s.hit(tr, 4)
		s.iFrame(tr, pkt)
	case ctrl1&0x03 == 0x01: // S format
		s.hit(tr, 5)
		s.sFrame(tr, pkt)
	default: // U format
		s.hit(tr, 6)
		s.uFrame(tr, ctrl1)
	}
}

// uFrame drives the connection state machine.
func (s *Slave) uFrame(tr *coverage.Tracer, ctrl1 byte) {
	switch ctrl1 {
	case 0x07: // STARTDT act
		s.hit(tr, 7)
		s.started = true
	case 0x13: // STOPDT act
		s.hit(tr, 8)
		s.started = false
	case 0x43: // TESTFR act
		s.hit(tr, 9)
	case 0x0B, 0x23, 0x83: // confirmations from a peer
		s.hit(tr, 10)
	default:
		s.hit(tr, 11)
	}
}

// sFrame acknowledges sequence numbers.
func (s *Slave) sFrame(tr *coverage.Tracer, pkt []byte) {
	ackSeq := uint16(pkt[4])>>1 | uint16(pkt[5])<<7
	if ackSeq > s.vs {
		s.hit(tr, 12)
		return
	}
	s.hit(tr, 13)
}

// iFrame decodes the carried ASDU. The reference implementation drops I
// frames while stopped.
func (s *Slave) iFrame(tr *coverage.Tracer, pkt []byte) {
	if !s.started {
		s.hit(tr, 14)
		return
	}
	s.vr++
	if len(pkt) < 12 {
		s.hit(tr, 15)
		return
	}
	asdu := pkt[6:]
	typeID := asdu[0]
	vsq := asdu[1]
	cot := asdu[2] & 0x3F
	ca := uint16(asdu[4]) | uint16(asdu[5])<<8
	s.lastCOT = cot
	if ca == 0 {
		s.hit(tr, 16)
		return
	}
	n := int(vsq & 0x7F)
	sequence := vsq&0x80 != 0
	body := asdu[6:]
	switch typeID {
	case typeMSpNa:
		s.hit(tr, 17)
		s.decodePoints(tr, body, n, sequence)
	case typeMMeNa:
		s.hit(tr, 18)
		s.decodeMeasured(tr, body, n, sequence)
	case typeCScNa:
		s.hit(tr, 19)
		s.singleCommand(tr, body, cot)
	case typeCIcNa:
		s.hit(tr, 20)
		s.interrogation(tr, body, cot)
	case typeCCsNa:
		s.hit(tr, 21)
		s.clockSync(tr, body)
	default:
		if !s.dispatchExtended(tr, typeID, body, n, sequence, cot) {
			s.hit(tr, 22)
		}
	}
}

// ioa decodes a 3-byte information object address.
func ioa(b []byte) int { return int(b[0]) | int(b[1])<<8 | int(b[2])<<16 }

// decodePoints parses M_SP_NA_1 single-point objects: 3-byte IOA + 1-byte
// SIQ per object, or one IOA followed by packed values when the sequence
// bit is set.
func (s *Slave) decodePoints(tr *coverage.Tracer, body []byte, n int, sequence bool) {
	if sequence {
		s.hit(tr, 23)
		if len(body) < 3+n {
			s.hit(tr, 24)
			return
		}
		base := ioa(body)
		for i := 0; i < n; i++ {
			if base+i < len(s.points) {
				s.hit(tr, 25)
				s.points[base+i] = body[3+i]&1 != 0
			}
		}
		return
	}
	s.hit(tr, 26)
	if len(body) < 4*n {
		s.hit(tr, 27)
		return
	}
	for i := 0; i < n; i++ {
		obj := body[4*i:]
		a := ioa(obj)
		if a < len(s.points) {
			s.hit(tr, 28)
			s.points[a] = obj[3]&1 != 0
		} else {
			s.hit(tr, 29)
		}
	}
}

// decodeMeasured parses M_ME_NA_1 objects: IOA + 2-byte NVA + 1-byte QDS.
func (s *Slave) decodeMeasured(tr *coverage.Tracer, body []byte, n int, sequence bool) {
	step := 6
	if sequence {
		s.hit(tr, 30)
		step = 3
		if len(body) < 3+step*n {
			s.hit(tr, 31)
			return
		}
		base := ioa(body)
		for i := 0; i < n; i++ {
			v := uint16(body[3+3*i]) | uint16(body[4+3*i])<<8
			if base+i < len(s.measured) {
				s.measured[base+i] = v
			}
		}
		return
	}
	s.hit(tr, 32)
	if len(body) < step*n {
		s.hit(tr, 33)
		return
	}
	for i := 0; i < n; i++ {
		obj := body[step*i:]
		a := ioa(obj)
		v := uint16(obj[3]) | uint16(obj[4])<<8
		if a < len(s.measured) {
			s.hit(tr, 34)
			s.measured[a] = v
		}
	}
}

// singleCommand handles C_SC_NA_1: activation / deactivation of one point.
func (s *Slave) singleCommand(tr *coverage.Tracer, body []byte, cot byte) {
	if len(body) < 4 {
		s.hit(tr, 35)
		return
	}
	if cot != 6 && cot != 8 { // act / deact
		s.hit(tr, 36)
		return
	}
	a := ioa(body)
	sco := body[3]
	if a >= len(s.points) {
		s.hit(tr, 37)
		return
	}
	if sco&0x80 != 0 { // select
		s.hit(tr, 38)
		return
	}
	s.hit(tr, 39)
	s.points[a] = sco&1 != 0
}

// interrogation handles C_IC_NA_1 (general interrogation).
func (s *Slave) interrogation(tr *coverage.Tracer, body []byte, cot byte) {
	if len(body) < 4 {
		s.hit(tr, 40)
		return
	}
	if cot != 6 {
		s.hit(tr, 41)
		return
	}
	qoi := body[3]
	if qoi == 20 { // station interrogation
		s.hit(tr, 42)
	} else if qoi >= 21 && qoi <= 36 { // group interrogation
		s.hit(tr, 43)
	} else {
		s.hit(tr, 44)
	}
}

// clockSync handles C_CS_NA_1: CP56Time2a payload.
func (s *Slave) clockSync(tr *coverage.Tracer, body []byte) {
	if len(body) < 3+7 {
		s.hit(tr, 45)
		return
	}
	min := body[5] & 0x3F
	hour := body[7] & 0x1F
	if min > 59 || hour > 23 {
		s.hit(tr, 46)
		return
	}
	s.hit(tr, 47)
}

func init() {
	targets.Register("IEC104", func() targets.Target { return New() })
}
