// Package modbus reimplements the packet-processing core of libmodbus — the
// Modbus TCP server side — as an instrumented fuzzing target (paper §V-A,
// Fig. 4(a), Table I).
//
// The wire format is Modbus TCP: a 7-byte MBAP header (transaction id,
// protocol id, length, unit id) followed by a PDU (function code + data).
// The server maintains the standard four data banks (coils, discrete
// inputs, holding registers, input registers) and implements the function
// codes libmodbus serves, including the diagnostics subfunctions.
//
// Seeded vulnerabilities (matching Table I's libmodbus row — 1 heap
// use-after-free, 1 SEGV — as reproductions of the same bug classes at the
// same counts):
//
//   - heap-use-after-free: the diagnostics (0x08) "force listen-only"
//     subfunction releases the communication event buffer, but "return
//     query data" still reads it afterwards. Triggering needs two valid
//     diagnostics packets in sequence.
//   - SEGV: read/write multiple registers (0x17) computes the response
//     pointer from the read quantity without validating it when the write
//     quantity is zero, dereferencing a wild address for quantities beyond
//     the mapping.
package modbus

import (
	"repro/internal/coverage"
	"repro/internal/datamodel"
	"repro/internal/mem"
	"repro/internal/targets"
)

// Modbus function codes implemented by the server (the libmodbus set).
const (
	fcReadCoils             = 0x01
	fcReadDiscreteInputs    = 0x02
	fcReadHolding           = 0x03
	fcReadInput             = 0x04
	fcWriteSingleCoil       = 0x05
	fcWriteSingleRegister   = 0x06
	fcReadExceptionStatus   = 0x07
	fcDiagnostics           = 0x08
	fcGetCommEventCounter   = 0x0B
	fcWriteMultipleCoils    = 0x0F
	fcWriteMultipleRegs     = 0x10
	fcReportServerID        = 0x11
	fcMaskWriteRegister     = 0x16
	fcReadWriteMultipleRegs = 0x17
)

// Exception codes returned in error responses.
const (
	exIllegalFunction = 0x01
	exIllegalAddress  = 0x02
	exIllegalValue    = 0x03
)

// Mapping sizes, as in libmodbus's modbus_mapping_new defaults used by the
// fuzzed test server.
const (
	nbCoils    = 0x500
	nbDiscrete = 0x500
	nbHolding  = 0x200
	nbInput    = 0x200
)

// Server is the instrumented libmodbus server core.
type Server struct {
	id []coverage.BlockID //peachstar:nosnap immutable block identity wired at construction

	coils    [nbCoils]bool
	discrete [nbDiscrete]bool
	holding  [nbHolding]uint16
	input    [nbInput]uint16

	// Simulated heap state for the seeded bugs.
	heap        *mem.Heap
	eventBuf    uint32 // communication event buffer (UAF target)
	eventsFreed bool
	eventCount  uint16
	listenOnly  bool

	// files is the file-record storage served by FC 0x14/0x15.
	files fileRecords

	// lastResponse is kept to exercise response-construction code.
	lastResponse []byte
}

// New returns a fresh server with zeroed banks, ready to handle packets.
func New() *Server {
	s := &Server{
		id:   coverage.Blocks("libmodbus", 160),
		heap: mem.NewHeap(),
	}
	s.eventBuf = s.heap.Alloc(64)
	// Pre-populate a few registers so reads have structure.
	for i := 0; i < 16; i++ {
		s.holding[i] = uint16(i * 3)
		s.input[i] = uint16(0xFF00 | i)
	}
	for f := 0; f < maxFileRecords; f++ {
		for r := 0; r < 8; r++ {
			s.files[f][r] = uint16(f<<8 | r)
		}
	}
	return s
}

// Name implements targets.Target.
func (s *Server) Name() string { return "libmodbus" }

// hit is shorthand for the instrumentation stub.
func (s *Server) hit(tr *coverage.Tracer, n int) { tr.Hit(s.id[n]) }

// Handle implements targets.Target: discriminate the transport (Modbus
// TCP's MBAP header versus an RTU serial frame), validate framing, and
// dispatch the PDU. The layout of branch blocks mirrors libmodbus's
// modbus_reply.
func (s *Server) Handle(tr *coverage.Tracer, pkt []byte) {
	s.hit(tr, 0)
	// RTU frames address slave 0/1 and close with a valid CRC16; the
	// check cannot misfire on MBAP traffic (transaction ids do not
	// produce valid trailing CRCs by accident).
	if len(pkt) >= 4 && pkt[0] <= 1 {
		data := pkt[:len(pkt)-2]
		crc := uint16(pkt[len(pkt)-2]) | uint16(pkt[len(pkt)-1])<<8
		if datamodel.CRC16ModbusSum(data) == crc {
			s.HandleRTU(tr, pkt)
			return
		}
	}
	// --- MBAP header ---
	if len(pkt) < 8 {
		s.hit(tr, 1)
		return
	}
	protoID := be16(pkt[2:])
	length := be16(pkt[4:])
	if protoID != 0 {
		s.hit(tr, 2)
		return
	}
	// Length counts unit id + PDU.
	if int(length) != len(pkt)-6 {
		s.hit(tr, 3)
		return
	}
	if length < 2 {
		s.hit(tr, 4)
		return
	}
	s.hit(tr, 5)
	unit := pkt[6]
	if unit != 0 && unit != 1 && unit != 0xFF {
		// Not addressed to this server (libmodbus accepts its own
		// slave id, 0 broadcast, and 0xFF for TCP).
		s.hit(tr, 6)
		return
	}
	s.dispatchPDU(tr, pkt[7:])
}

// dispatchPDU serves one PDU; both the TCP and RTU paths land here, the
// shared service layer of libmodbus (cf. the paper's Fig. 2 insight about
// shared code blocks).
func (s *Server) dispatchPDU(tr *coverage.Tracer, pdu []byte) {
	fc := pdu[0]
	// Listen-only mode drops everything except the diagnostics restart.
	if s.listenOnly && fc != fcDiagnostics {
		s.hit(tr, 7)
		return
	}
	switch fc {
	case fcReadCoils:
		s.hit(tr, 8)
		s.readBits(tr, pdu, s.coils[:], 10)
	case fcReadDiscreteInputs:
		s.hit(tr, 9)
		s.readBits(tr, pdu, s.discrete[:], 10)
	case fcReadHolding:
		s.hit(tr, 20)
		s.readRegisters(tr, pdu, s.holding[:], 22)
	case fcReadInput:
		s.hit(tr, 21)
		s.readRegisters(tr, pdu, s.input[:], 22)
	case fcWriteSingleCoil:
		s.writeSingleCoil(tr, pdu)
	case fcWriteSingleRegister:
		s.writeSingleRegister(tr, pdu)
	case fcReadExceptionStatus:
		s.hit(tr, 30)
		s.respond(tr, []byte{fc, 0x00})
	case fcDiagnostics:
		s.diagnostics(tr, pdu)
	case fcGetCommEventCounter:
		s.hit(tr, 31)
		s.respond(tr, []byte{fc, 0xFF, 0xFF, byte(s.eventCount >> 8), byte(s.eventCount)})
	case fcWriteMultipleCoils:
		s.writeMultipleCoils(tr, pdu)
	case fcWriteMultipleRegs:
		s.writeMultipleRegisters(tr, pdu)
	case fcReportServerID:
		s.hit(tr, 32)
		s.respond(tr, []byte{fc, 3, 0x0A, 0xFF, 'R'})
	case fcMaskWriteRegister:
		s.maskWriteRegister(tr, pdu)
	case fcReadWriteMultipleRegs:
		s.readWriteMultipleRegisters(tr, pdu)
	default:
		if !s.extendedDispatch(tr, fc, pdu) {
			s.hit(tr, 33)
			s.exception(tr, fc, exIllegalFunction)
		}
	}
}

// readBits serves 0x01/0x02: quantity check, address range check, bit
// packing — the shared bit-bank read path of libmodbus.
func (s *Server) readBits(tr *coverage.Tracer, pdu []byte, bank []bool, blk int) {
	if len(pdu) != 5 {
		s.hit(tr, blk)
		return
	}
	addr := int(be16(pdu[1:]))
	qty := int(be16(pdu[3:]))
	if qty < 1 || qty > 2000 {
		s.hit(tr, blk+1)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if addr+qty > len(bank) {
		s.hit(tr, blk+2)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	s.hit(tr, blk+3)
	nBytes := (qty + 7) / 8
	resp := make([]byte, 2+nBytes)
	resp[0], resp[1] = pdu[0], byte(nBytes)
	for i := 0; i < qty; i++ {
		if bank[addr+i] {
			s.hit(tr, blk+4)
			resp[2+i/8] |= 1 << (i % 8)
		}
	}
	s.respond(tr, resp)
}

// readRegisters serves 0x03/0x04: the shared register-bank read path.
func (s *Server) readRegisters(tr *coverage.Tracer, pdu []byte, bank []uint16, blk int) {
	if len(pdu) != 5 {
		s.hit(tr, blk)
		return
	}
	addr := int(be16(pdu[1:]))
	qty := int(be16(pdu[3:]))
	if qty < 1 || qty > 125 {
		s.hit(tr, blk+1)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if addr+qty > len(bank) {
		s.hit(tr, blk+2)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	s.hit(tr, blk+3)
	resp := make([]byte, 2+2*qty)
	resp[0], resp[1] = pdu[0], byte(2*qty)
	for i := 0; i < qty; i++ {
		v := bank[addr+i]
		resp[2+2*i] = byte(v >> 8)
		resp[3+2*i] = byte(v)
		if v != 0 {
			s.hit(tr, blk+4)
		}
	}
	s.respond(tr, resp)
}

// writeSingleCoil serves 0x05. Only 0x0000 and 0xFF00 are legal values —
// the classic Modbus quirk.
func (s *Server) writeSingleCoil(tr *coverage.Tracer, pdu []byte) {
	s.hit(tr, 40)
	if len(pdu) != 5 {
		s.hit(tr, 41)
		return
	}
	addr := int(be16(pdu[1:]))
	val := be16(pdu[3:])
	if addr >= nbCoils {
		s.hit(tr, 42)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	switch val {
	case 0xFF00:
		s.hit(tr, 43)
		s.coils[addr] = true
	case 0x0000:
		s.hit(tr, 44)
		s.coils[addr] = false
	default:
		s.hit(tr, 45)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	s.eventCount++
	s.respond(tr, pdu)
}

// writeSingleRegister serves 0x06. Note the paper's §III example: this and
// write-single-coil share address calculation and response construction;
// only the bank written differs.
func (s *Server) writeSingleRegister(tr *coverage.Tracer, pdu []byte) {
	s.hit(tr, 46)
	if len(pdu) != 5 {
		s.hit(tr, 47)
		return
	}
	addr := int(be16(pdu[1:]))
	if addr >= nbHolding {
		s.hit(tr, 48)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	s.hit(tr, 49)
	s.holding[addr] = be16(pdu[3:])
	s.eventCount++
	s.respond(tr, pdu)
}

// Diagnostics subfunction codes (0x08).
const (
	diagReturnQueryData   = 0x0000
	diagRestartComms      = 0x0001
	diagChangeASCIIDelim  = 0x0003
	diagForceListenOnly   = 0x0004
	diagClearCounters     = 0x000A
	diagBusMessageCount   = 0x000B
	diagBusCommErrorCount = 0x000C
)

// diagnostics serves 0x08 and hosts the seeded use-after-free: force
// listen-only releases the event buffer; return query data reads it.
func (s *Server) diagnostics(tr *coverage.Tracer, pdu []byte) {
	s.hit(tr, 50)
	if len(pdu) < 5 {
		s.hit(tr, 51)
		return
	}
	sub := be16(pdu[1:])
	switch sub {
	case diagReturnQueryData:
		s.hit(tr, 52)
		// BUG(seeded, Table I libmodbus UAF): reads the event buffer
		// without checking that it is still live.
		echo := s.heap.LoadN(s.eventBuf, 4, "modbus.diagnostics.return_query_data")
		s.respond(tr, append([]byte{pdu[0], pdu[1], pdu[2]}, echo...))
	case diagRestartComms:
		s.hit(tr, 53)
		s.listenOnly = false
		s.eventCount = 0
		if !s.eventsFreed {
			// Restart reallocates the buffer: free + alloc.
			s.heap.Free(s.eventBuf, "modbus.diagnostics.restart")
			s.eventBuf = s.heap.Alloc(64)
		}
		s.respond(tr, pdu[:5])
	case diagChangeASCIIDelim:
		s.hit(tr, 54)
		if pdu[3] == 0 {
			s.hit(tr, 55)
			s.exception(tr, pdu[0], exIllegalValue)
			return
		}
		s.respond(tr, pdu[:5])
	case diagForceListenOnly:
		s.hit(tr, 56)
		s.listenOnly = true
		// BUG(seeded): the event buffer is released on entering
		// listen-only mode, but diagReturnQueryData still uses it.
		if !s.eventsFreed {
			s.heap.Free(s.eventBuf, "modbus.diagnostics.force_listen_only")
			s.eventsFreed = true
		}
	case diagClearCounters:
		s.hit(tr, 102)
		s.eventCount = 0
		// Unlike return-query-data, the clear path checks buffer
		// liveness (keeping the seeded UAF a single-site bug, as in
		// Table I's count for libmodbus).
		if !s.eventsFreed {
			s.hit(tr, 103)
			s.heap.StoreN(s.eventBuf, []byte{0, 0, 0, 0}, "modbus.diagnostics.clear")
		}
		s.respond(tr, pdu[:5])
	case diagBusMessageCount, diagBusCommErrorCount:
		s.hit(tr, 58)
		s.respond(tr, []byte{pdu[0], pdu[1], pdu[2], byte(s.eventCount >> 8), byte(s.eventCount)})
	default:
		s.hit(tr, 59)
		s.exception(tr, pdu[0], exIllegalValue)
	}
}

// writeMultipleCoils serves 0x0F: header + packed bit payload.
func (s *Server) writeMultipleCoils(tr *coverage.Tracer, pdu []byte) {
	s.hit(tr, 60)
	if len(pdu) < 6 {
		s.hit(tr, 61)
		return
	}
	addr := int(be16(pdu[1:]))
	qty := int(be16(pdu[3:]))
	byteCount := int(pdu[5])
	if qty < 1 || qty > 0x7B0 {
		s.hit(tr, 62)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if byteCount != (qty+7)/8 || len(pdu) != 6+byteCount {
		s.hit(tr, 63)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if addr+qty > nbCoils {
		s.hit(tr, 64)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	s.hit(tr, 65)
	for i := 0; i < qty; i++ {
		s.coils[addr+i] = pdu[6+i/8]&(1<<(i%8)) != 0
	}
	s.eventCount++
	s.respond(tr, pdu[:5])
}

// writeMultipleRegisters serves 0x10.
func (s *Server) writeMultipleRegisters(tr *coverage.Tracer, pdu []byte) {
	s.hit(tr, 70)
	if len(pdu) < 6 {
		s.hit(tr, 71)
		return
	}
	addr := int(be16(pdu[1:]))
	qty := int(be16(pdu[3:]))
	byteCount := int(pdu[5])
	if qty < 1 || qty > 123 {
		s.hit(tr, 72)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if byteCount != 2*qty || len(pdu) != 6+byteCount {
		s.hit(tr, 73)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if addr+qty > nbHolding {
		s.hit(tr, 74)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	s.hit(tr, 75)
	for i := 0; i < qty; i++ {
		s.holding[addr+i] = be16(pdu[6+2*i:])
	}
	s.eventCount++
	s.respond(tr, pdu[:5])
}

// maskWriteRegister serves 0x16: reg = (reg & and) | (or & ^and).
func (s *Server) maskWriteRegister(tr *coverage.Tracer, pdu []byte) {
	s.hit(tr, 80)
	if len(pdu) != 7 {
		s.hit(tr, 81)
		return
	}
	addr := int(be16(pdu[1:]))
	if addr >= nbHolding {
		s.hit(tr, 82)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	s.hit(tr, 83)
	and, or := be16(pdu[3:]), be16(pdu[5:])
	s.holding[addr] = (s.holding[addr] & and) | (or &^ and)
	s.respond(tr, pdu)
}

// readWriteMultipleRegisters serves 0x17 and hosts the seeded SEGV: when
// the write quantity is zero the response pointer is computed from the
// read quantity without the range check that the non-zero path performs.
func (s *Server) readWriteMultipleRegisters(tr *coverage.Tracer, pdu []byte) {
	s.hit(tr, 90)
	if len(pdu) < 10 {
		s.hit(tr, 91)
		return
	}
	rAddr := int(be16(pdu[1:]))
	rQty := int(be16(pdu[3:]))
	wAddr := int(be16(pdu[5:]))
	wQty := int(be16(pdu[7:]))
	byteCount := int(pdu[9])
	if wQty == 0 {
		s.hit(tr, 92)
		// BUG(seeded, Table I libmodbus SEGV): the zero-write fast
		// path trusts rQty and indexes the mapping unchecked;
		// quantities past the mapping dereference a bad address.
		var acc uint16
		for i := 0; i < rQty; i++ {
			acc ^= s.holding[rAddr+i]
		}
		s.respond(tr, []byte{pdu[0], byte(2 * rQty), byte(acc >> 8), byte(acc)})
		return
	}
	if rQty < 1 || rQty > 0x7D || wQty > 0x79 {
		s.hit(tr, 93)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if byteCount != 2*wQty || len(pdu) != 10+byteCount {
		s.hit(tr, 94)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if rAddr+rQty > nbHolding || wAddr+wQty > nbHolding {
		s.hit(tr, 95)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	s.hit(tr, 96)
	for i := 0; i < wQty; i++ {
		s.holding[wAddr+i] = be16(pdu[10+2*i:])
	}
	resp := make([]byte, 2+2*rQty)
	resp[0], resp[1] = pdu[0], byte(2*rQty)
	for i := 0; i < rQty; i++ {
		v := s.holding[rAddr+i]
		resp[2+2*i], resp[3+2*i] = byte(v>>8), byte(v)
	}
	s.respond(tr, resp)
}

// exception builds a Modbus exception response (fc|0x80, code).
func (s *Server) exception(tr *coverage.Tracer, fc, code byte) {
	s.hit(tr, 100)
	s.lastResponse = []byte{fc | 0x80, code}
}

// respond stores the response PDU, exercising the shared
// response-construction path.
func (s *Server) respond(tr *coverage.Tracer, pdu []byte) {
	s.hit(tr, 101)
	resp := make([]byte, 7+len(pdu))
	resp[6] = 0xFF
	copy(resp[7:], pdu)
	n := len(pdu) + 1
	resp[4], resp[5] = byte(n>>8), byte(n)
	s.lastResponse = resp
}

// LastResponse returns the most recent response frame (tests use it).
func (s *Server) LastResponse() []byte { return s.lastResponse }

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }

func init() {
	targets.Register("libmodbus", func() targets.Target { return New() })
}
