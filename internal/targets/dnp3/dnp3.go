// Package dnp3 reimplements the packet-processing core of opendnp3 — a
// DNP3 (IEEE 1815) outstation — as an instrumented fuzzing target (paper
// §V-A, Fig. 4(f)).
//
// DNP3 stacks three layers. The data-link layer frames everything with the
// 0x05 0x64 start bytes, a length, control/destination/source fields and a
// CRC-16/DNP over the header, then carries user data in blocks of up to 16
// bytes, each closed by its own CRC. The transport layer prefixes one octet
// (FIR/FIN/sequence) for fragmentation. The application layer carries a
// control octet, a function code, and a list of object headers
// (group/variation/qualifier/range) with optional object data.
//
// opendnp3 contributed no entries to the paper's Table I, so this target
// seeds no vulnerabilities; it exists for the Fig. 4(f) coverage experiment
// (hundreds of paths — the second-largest code scale of the six).
package dnp3

import (
	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/targets"
)

// Application-layer function codes handled by the outstation.
const (
	afConfirm       = 0x00
	afRead          = 0x01
	afWrite         = 0x02
	afSelect        = 0x03
	afOperate       = 0x04
	afDirectOperate = 0x05
	afColdRestart   = 0x0D
	afWarmRestart   = 0x0E
	afEnableUnsol   = 0x14
	afDisableUnsol  = 0x15
	afDelayMeasure  = 0x17
)

// Object groups the outstation serves.
const (
	grBinaryInput  = 1
	grBinaryOutput = 10
	grCROB         = 12
	grCounter      = 20
	grAnalogInput  = 30
	grAnalogOutput = 41
	grTime         = 50
	grClassData    = 60
)

// Outstation is the instrumented opendnp3 outstation core.
type Outstation struct {
	id []coverage.BlockID // immutable block identity wired at construction

	addr     uint16
	seq      byte // expected transport sequence
	appSeq   byte
	binaries [16]bool
	outputs  [16]bool
	counters [8]uint32
	analogs  [16]int32
	clock    uint64

	// Select-before-operate state.
	selected      bool
	selectedIndex byte
	selectedCode  byte

	unsolEnabled [4]bool
	restarts     int
	ext          extendedState
}

// New returns a fresh outstation at link address 10.
func New() *Outstation {
	o := &Outstation{
		id:   coverage.Blocks("opendnp3", 256),
		addr: 10,
		ext:  newExtendedState(),
	}
	for i := range o.analogs {
		o.analogs[i] = int32(i * 100)
	}
	for i := range o.counters {
		o.counters[i] = uint32(i)
	}
	return o
}

// Name implements targets.Target.
func (o *Outstation) Name() string { return "opendnp3" }

func (o *Outstation) hit(tr *coverage.Tracer, n int) { tr.Hit(o.id[n]) }

// Handle implements targets.Target: link-layer validation, block
// reassembly, transport and application parsing.
func (o *Outstation) Handle(tr *coverage.Tracer, pkt []byte) {
	o.hit(tr, 0)
	if len(pkt) < 10 {
		o.hit(tr, 1)
		return
	}
	if pkt[0] != 0x05 || pkt[1] != 0x64 {
		o.hit(tr, 2)
		return
	}
	// LEN counts ctrl+dest+src+user data, excluding CRCs.
	linkLen := int(pkt[2])
	if linkLen < 5 {
		o.hit(tr, 3)
		return
	}
	hdrCRC := uint16(pkt[8]) | uint16(pkt[9])<<8
	if datamodel.CRC16DNPSum(pkt[:8]) != hdrCRC {
		o.hit(tr, 4)
		return
	}
	ctrl := pkt[3]
	dst := uint16(pkt[4]) | uint16(pkt[5])<<8
	src := uint16(pkt[6]) | uint16(pkt[7])<<8
	if dst != o.addr && dst != 0xFFFF {
		o.hit(tr, 5)
		return
	}
	if src == dst {
		o.hit(tr, 6) // self-addressed, dropped
		return
	}
	// PRM bit must be set for primary frames; function USER_DATA (4) or
	// UNCONFIRMED_USER_DATA (3).
	if ctrl&0x40 == 0 {
		o.hit(tr, 7)
		return
	}
	lfc := ctrl & 0x0F
	switch lfc {
	case 0: // RESET_LINK_STATES
		o.hit(tr, 8)
		o.seq = 0
		return
	case 2: // TEST_LINK_STATES
		o.hit(tr, 9)
		return
	case 3, 4: // (un)confirmed user data
		o.hit(tr, 10)
	case 9: // REQUEST_LINK_STATUS
		o.hit(tr, 11)
		return
	default:
		o.hit(tr, 12)
		return
	}
	userLen := linkLen - 5
	user, ok := o.deblock(tr, pkt[10:], userLen)
	if !ok {
		return
	}
	o.transport(tr, user)
}

// deblock strips per-block CRCs, validating each, and returns exactly
// userLen bytes of user data.
func (o *Outstation) deblock(tr *coverage.Tracer, data []byte, userLen int) ([]byte, bool) {
	var user []byte
	for len(user) < userLen {
		need := userLen - len(user)
		if need > 16 {
			need = 16
		}
		if len(data) < need+2 {
			o.hit(tr, 13)
			return nil, false
		}
		block := data[:need]
		crc := uint16(data[need]) | uint16(data[need+1])<<8
		if datamodel.CRC16DNPSum(block) != crc {
			o.hit(tr, 14)
			return nil, false
		}
		o.hit(tr, 15)
		user = append(user, block...)
		data = data[need+2:]
	}
	if len(data) != 0 {
		o.hit(tr, 16)
		return nil, false
	}
	return user, true
}

// transport handles the one-octet transport header. Only single-fragment
// messages (FIR|FIN) are accepted, as the paper's fuzzing setup sends
// independent packets.
func (o *Outstation) transport(tr *coverage.Tracer, user []byte) {
	if len(user) < 1 {
		o.hit(tr, 17)
		return
	}
	th := user[0]
	fin, fir := th&0x80 != 0, th&0x40 != 0
	if !fir || !fin {
		o.hit(tr, 18)
		return
	}
	o.seq = th & 0x3F
	o.application(tr, user[1:])
}

// application parses the application fragment: control, function code, and
// the object-header list.
func (o *Outstation) application(tr *coverage.Tracer, frag []byte) {
	if len(frag) < 2 {
		o.hit(tr, 19)
		return
	}
	appCtrl := frag[0]
	fc := frag[1]
	o.appSeq = appCtrl & 0x0F
	if appCtrl&0xC0 != 0xC0 { // FIR|FIN required on requests
		o.hit(tr, 20)
		return
	}
	objs := frag[2:]
	switch fc {
	case afConfirm:
		o.hit(tr, 21)
	case afRead:
		o.hit(tr, 22)
		o.read(tr, objs)
	case afWrite:
		o.hit(tr, 23)
		o.write(tr, objs)
	case afSelect:
		o.hit(tr, 24)
		o.selectOp(tr, objs)
	case afOperate:
		o.hit(tr, 25)
		o.operate(tr, objs, false)
	case afDirectOperate:
		o.hit(tr, 26)
		o.operate(tr, objs, true)
	case afColdRestart:
		o.hit(tr, 27)
		o.restarts++
		o.selected = false
	case afWarmRestart:
		o.hit(tr, 28)
		o.restarts++
	case afEnableUnsol:
		o.hit(tr, 29)
		o.unsolMask(tr, objs, true)
	case afDisableUnsol:
		o.hit(tr, 30)
		o.unsolMask(tr, objs, false)
	case afDelayMeasure:
		o.hit(tr, 31)
	default:
		if !o.dispatchExtended(tr, fc, objs) {
			o.hit(tr, 32)
		}
	}
}

// header is one parsed object header.
type header struct {
	group, variation, qualifier byte
	start, stop                 int
	count                       int
	data                        []byte
}

// parseHeader decodes one object header at the front of objs, returning the
// rest. Supported qualifiers mirror opendnp3's request parser: 0x00/0x01
// start-stop, 0x06 all objects, 0x07/0x08 limited count, 0x17 one-byte
// index prefixes.
func (o *Outstation) parseHeader(tr *coverage.Tracer, objs []byte, withData int) (h header, rest []byte, ok bool) {
	if len(objs) < 3 {
		o.hit(tr, 33)
		return h, nil, false
	}
	h.group, h.variation, h.qualifier = objs[0], objs[1], objs[2]
	objs = objs[3:]
	switch h.qualifier {
	case 0x00: // 1-byte start/stop
		if len(objs) < 2 {
			o.hit(tr, 34)
			return h, nil, false
		}
		h.start, h.stop = int(objs[0]), int(objs[1])
		objs = objs[2:]
	case 0x01: // 2-byte start/stop
		if len(objs) < 4 {
			o.hit(tr, 35)
			return h, nil, false
		}
		h.start = int(objs[0]) | int(objs[1])<<8
		h.stop = int(objs[2]) | int(objs[3])<<8
		objs = objs[4:]
	case 0x06: // all objects
		h.start, h.stop = 0, -1
	case 0x07: // 1-byte count
		if len(objs) < 1 {
			o.hit(tr, 36)
			return h, nil, false
		}
		h.count = int(objs[0])
		objs = objs[1:]
	case 0x17: // 1-byte count + 1-byte index prefix per object
		if len(objs) < 1 {
			o.hit(tr, 37)
			return h, nil, false
		}
		h.count = int(objs[0])
		objs = objs[1:]
	default:
		o.hit(tr, 38)
		return h, nil, false
	}
	if h.stop >= 0 && h.start > h.stop {
		o.hit(tr, 39)
		return h, nil, false
	}
	if withData > 0 {
		n := withData
		if h.qualifier == 0x17 {
			n = (withData + 1) * h.count
		}
		if len(objs) < n {
			o.hit(tr, 40)
			return h, nil, false
		}
		h.data = objs[:n]
		objs = objs[n:]
	}
	o.hit(tr, 41)
	return h, objs, true
}

// read serves READ requests: iterate headers, collect requested points.
func (o *Outstation) read(tr *coverage.Tracer, objs []byte) {
	for len(objs) > 0 {
		h, rest, ok := o.parseHeader(tr, objs, 0)
		if !ok {
			return
		}
		objs = rest
		switch h.group {
		case grClassData:
			switch h.variation {
			case 1:
				o.hit(tr, 42)
			case 2, 3, 4:
				o.hit(tr, 43)
			default:
				o.hit(tr, 44)
			}
		case grBinaryInput:
			o.hit(tr, 45)
			o.scanRange(tr, h, len(o.binaries), 46)
		case grCounter:
			o.hit(tr, 48)
			o.scanRange(tr, h, len(o.counters), 49)
		case grAnalogInput:
			o.hit(tr, 51)
			o.scanRange(tr, h, len(o.analogs), 52)
		case grBinaryOutput:
			o.hit(tr, 54)
			o.scanRange(tr, h, len(o.outputs), 55)
		case grTime:
			o.hit(tr, 57)
		default:
			if !o.extendedRead(tr, h) {
				o.hit(tr, 58)
			}
		}
	}
	o.hit(tr, 59)
}

// scanRange walks the requested index range against a bank size, hitting
// per-point blocks — the response-building loop of an outstation database.
func (o *Outstation) scanRange(tr *coverage.Tracer, h header, bank int, blk int) {
	start, stop := h.start, h.stop
	if stop < 0 { // all objects
		stop = bank - 1
	}
	if h.count > 0 {
		stop = start + h.count - 1
	}
	if stop >= bank {
		o.hit(tr, blk)
		stop = bank - 1
	}
	for i := start; i <= stop && i < bank; i++ {
		o.hit(tr, blk+1)
	}
}

// write serves WRITE requests: g50v1 absolute time, g110 octet strings and
// g80v1 internal-indication clears are the writable points, as in
// opendnp3's default config.
func (o *Outstation) write(tr *coverage.Tracer, objs []byte) {
	h, rest, ok := o.parseHeader(tr, objs, 0)
	if !ok {
		return
	}
	if o.extendedWrite(tr, h, rest) {
		return
	}
	if h.group != grTime || h.variation != 1 {
		o.hit(tr, 60)
		return
	}
	if len(rest) < 6 {
		o.hit(tr, 61)
		return
	}
	o.hit(tr, 62)
	var t uint64
	for i := 5; i >= 0; i-- {
		t = t<<8 | uint64(rest[i])
	}
	o.clock = t
}

// crob is a parsed control relay output block (g12v1).
type crob struct {
	code   byte
	count  byte
	onTime uint32
	index  byte
}

// parseCROB expects qualifier 0x17 with one index-prefixed 11-byte CROB.
func (o *Outstation) parseCROB(tr *coverage.Tracer, objs []byte) (crob, bool) {
	var c crob
	if len(objs) < 3 {
		o.hit(tr, 63)
		return c, false
	}
	if objs[0] != grCROB || objs[1] != 1 || objs[2] != 0x17 {
		o.hit(tr, 64)
		return c, false
	}
	objs = objs[3:]
	if len(objs) < 1 || objs[0] != 1 {
		o.hit(tr, 65) // only single-object control supported
		return c, false
	}
	objs = objs[1:]
	if len(objs) < 12 {
		o.hit(tr, 66)
		return c, false
	}
	c.index = objs[0]
	c.code = objs[1]
	c.count = objs[2]
	c.onTime = uint32(objs[3]) | uint32(objs[4])<<8 | uint32(objs[5])<<16 | uint32(objs[6])<<24
	o.hit(tr, 67)
	return c, true
}

// validCode screens CROB operation codes like opendnp3's CommandHandler.
func validCode(code byte) bool {
	switch code & 0x0F {
	case 0x01, 0x03, 0x04: // LATCH_ON, LATCH_OFF, PULSE
		return true
	default:
		return false
	}
}

// selectOp arms a control point (select-before-operate).
func (o *Outstation) selectOp(tr *coverage.Tracer, objs []byte) {
	c, ok := o.parseCROB(tr, objs)
	if !ok {
		return
	}
	if int(c.index) >= len(o.outputs) {
		o.hit(tr, 68)
		return
	}
	if !validCode(c.code) {
		o.hit(tr, 69)
		return
	}
	if c.count == 0 {
		o.hit(tr, 70)
		return
	}
	o.hit(tr, 71)
	o.selected = true
	o.selectedIndex = c.index
	o.selectedCode = c.code
}

// operate executes a control. In SBO mode it must match the armed select.
func (o *Outstation) operate(tr *coverage.Tracer, objs []byte, direct bool) {
	c, ok := o.parseCROB(tr, objs)
	if !ok {
		return
	}
	if int(c.index) >= len(o.outputs) {
		o.hit(tr, 72)
		return
	}
	if !validCode(c.code) {
		o.hit(tr, 73)
		return
	}
	if !direct {
		if !o.selected || o.selectedIndex != c.index || o.selectedCode != c.code {
			o.hit(tr, 74) // NO_SELECT
			return
		}
		o.selected = false
	}
	switch c.code & 0x0F {
	case 0x01:
		o.hit(tr, 75)
		o.outputs[c.index] = true
	case 0x03:
		o.hit(tr, 76)
		o.outputs[c.index] = false
	case 0x04:
		o.hit(tr, 77)
		o.outputs[c.index] = !o.outputs[c.index]
	}
}

// unsolMask flips unsolicited-class enables for g60 class headers.
func (o *Outstation) unsolMask(tr *coverage.Tracer, objs []byte, enable bool) {
	for len(objs) > 0 {
		h, rest, ok := o.parseHeader(tr, objs, 0)
		if !ok {
			return
		}
		objs = rest
		if h.group != grClassData || h.variation < 2 || h.variation > 4 {
			o.hit(tr, 78)
			continue
		}
		o.hit(tr, 79)
		o.unsolEnabled[h.variation-1] = enable
	}
}

func init() {
	targets.Register("opendnp3", func() targets.Target { return New() })
}
