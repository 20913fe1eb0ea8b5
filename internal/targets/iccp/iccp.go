// Package iccp reimplements the packet-processing core of libiec_iccp_mod
// (fcovatti's ICCP/TASE.2 stack) as an instrumented fuzzing target (paper
// §V-A, Fig. 4(e), Table I).
//
// ICCP (TASE.2) runs MMS services over the OSI stack; on the wire that is
// TPKT (RFC 1006) framing, a COTP transport PDU, and an MMS-style PDU. The
// server here implements the association lifecycle (COTP connect, MMS
// initiate, conclude) and the data services the library exposes (read,
// write, get-name-list, define-named-variable-list for transfer sets)
// against a small bilateral table.
//
// Seeded vulnerabilities (matching Table I's libiec_iccp_mod row — 3 SEGV
// and 1 heap-buffer-overflow):
//
//  1. SEGV: the initiate-request parser trusts the calling-AP-title length
//     octet and slices past the end of a truncated PDU.
//  2. SEGV: the read-service parser trusts the item-name length octet the
//     same way.
//  3. SEGV: the define-named-variable-list handler trusts the entry count
//     and walks off a short element list.
//  4. heap-buffer-overflow: the write service copies the attacker-supplied
//     value into a fixed 32-byte buffer with the attacker's length (the
//     strcpy idiom).
package iccp

import (
	"repro/internal/coverage"
	"repro/internal/mem"
	"repro/internal/targets"
)

// COTP PDU types.
const (
	cotpCR = 0xE0 // connection request
	cotpDT = 0xF0 // data transfer
	cotpDR = 0x80 // disconnect request
)

// MMS-style PDU tags (simplified BER outer tags, as the library's
// hand-rolled parser sees them).
const (
	tagInitiate  = 0xA8
	tagConfirmed = 0xA0
	tagConclude  = 0x8B
)

// MMS confirmed services handled.
const (
	svcGetNameList     = 0x02
	svcRead            = 0x04
	svcWrite           = 0x05
	svcDefineNamedList = 0x4D
)

// valueBufSize is the fixed server-side value buffer of the write service —
// the overflow target.
const valueBufSize = 32

// Server is the instrumented ICCP server core.
type Server struct {
	id []coverage.BlockID // immutable block identity wired at construction

	cotpConnected bool
	associated    bool
	heap          *mem.Heap
	valueBuf      uint32

	// Bilateral table: the variables this ICCP node exposes.
	table map[string][]byte
	// Transfer sets defined by the peer.
	transferSets int
	invokeID     uint16
}

// New returns a fresh server with a small bilateral table.
func New() *Server {
	s := &Server{
		id:   coverage.Blocks("libiccp", 128),
		heap: mem.NewHeap(),
		table: map[string][]byte{
			"Transfer_Set_Name":   {0x00, 0x01},
			"DSConditions_Detect": {0x04},
			"Bilateral_Table_ID":  []byte("BLT1"),
			"Supported_Features":  {0x00, 0x12},
		},
	}
	s.valueBuf = s.heap.Alloc(valueBufSize)
	return s
}

// Name implements targets.Target.
func (s *Server) Name() string { return "libiccp" }

func (s *Server) hit(tr *coverage.Tracer, n int) { tr.Hit(s.id[n]) }

// Handle implements targets.Target: TPKT framing, COTP transport, MMS
// dispatch.
func (s *Server) Handle(tr *coverage.Tracer, pkt []byte) {
	s.hit(tr, 0)
	// --- TPKT ---
	if len(pkt) < 7 {
		s.hit(tr, 1)
		return
	}
	if pkt[0] != 0x03 || pkt[1] != 0x00 {
		s.hit(tr, 2)
		return
	}
	tpktLen := int(pkt[2])<<8 | int(pkt[3])
	if tpktLen != len(pkt) {
		s.hit(tr, 3)
		return
	}
	// --- COTP ---
	cotp := pkt[4:]
	hdrLen := int(cotp[0])
	if hdrLen < 2 || 1+hdrLen > len(cotp) {
		s.hit(tr, 4)
		return
	}
	pduType := cotp[1]
	payload := cotp[1+hdrLen:]
	switch pduType {
	case cotpCR:
		s.hit(tr, 5)
		s.cotpConnected = true
	case cotpDR:
		s.hit(tr, 6)
		s.cotpConnected = false
		s.associated = false
	case cotpDT:
		if !s.cotpConnected {
			s.hit(tr, 7)
			return
		}
		s.hit(tr, 8)
		s.mms(tr, payload)
	default:
		s.hit(tr, 9)
	}
}

// mms dispatches on the outer PDU tag.
func (s *Server) mms(tr *coverage.Tracer, pdu []byte) {
	if len(pdu) < 2 {
		s.hit(tr, 10)
		return
	}
	tag := pdu[0]
	length := int(pdu[1])
	if 2+length > len(pdu) {
		s.hit(tr, 11)
		return
	}
	body := pdu[2 : 2+length]
	switch tag {
	case tagInitiate:
		s.hit(tr, 12)
		s.initiate(tr, body)
	case tagConfirmed:
		if !s.associated {
			s.hit(tr, 13)
			return
		}
		s.hit(tr, 14)
		s.confirmed(tr, body)
	case tagConclude:
		s.hit(tr, 15)
		s.associated = false
	default:
		s.hit(tr, 16)
	}
}

// initiate parses the initiate-request: protocol version, max PDU size,
// then the length-prefixed calling AP title. The AP-title read is the first
// seeded SEGV.
func (s *Server) initiate(tr *coverage.Tracer, body []byte) {
	if len(body) < 5 {
		s.hit(tr, 17)
		return
	}
	version := int(body[0])<<8 | int(body[1])
	if version != 1 {
		s.hit(tr, 18)
		return
	}
	maxPDU := int(body[2])<<8 | int(body[3])
	if maxPDU < 64 {
		s.hit(tr, 19)
		return
	}
	apLen := int(body[4])
	// BUG(seeded, Table I libiec_iccp_mod SEGV #1): apLen is trusted; a
	// truncated PDU faults on the slice below.
	ap := body[5 : 5+apLen]
	if len(ap) == 0 {
		s.hit(tr, 20)
		return
	}
	s.hit(tr, 21)
	s.associated = true
}

// confirmed parses a confirmed-request: invoke id, service code, payload.
func (s *Server) confirmed(tr *coverage.Tracer, body []byte) {
	if len(body) < 3 {
		s.hit(tr, 22)
		return
	}
	s.invokeID = uint16(body[0])<<8 | uint16(body[1])
	svc := body[2]
	rest := body[3:]
	switch svc {
	case svcGetNameList:
		s.hit(tr, 23)
		s.getNameList(tr, rest)
	case svcRead:
		s.hit(tr, 24)
		s.read(tr, rest)
	case svcWrite:
		s.hit(tr, 25)
		s.write(tr, rest)
	case svcDefineNamedList:
		s.hit(tr, 26)
		s.defineNamedList(tr, rest)
	default:
		if !s.dispatchExtended(tr, svc, rest) {
			s.hit(tr, 27)
		}
	}
}

// getNameList serves the object-discovery service: scope 0 = VMD, 1 =
// domain-specific (expects a domain name).
func (s *Server) getNameList(tr *coverage.Tracer, rest []byte) {
	if len(rest) < 1 {
		s.hit(tr, 28)
		return
	}
	switch rest[0] {
	case 0:
		s.hit(tr, 29)
		for range s.table {
			s.hit(tr, 30)
		}
	case 1:
		if len(rest) < 2 {
			s.hit(tr, 31)
			return
		}
		dLen := int(rest[1])
		if 2+dLen > len(rest) {
			s.hit(tr, 32)
			return
		}
		domain := string(rest[2 : 2+dLen])
		if domain == "ICC1" {
			s.hit(tr, 33)
		} else {
			s.hit(tr, 34)
		}
	default:
		s.hit(tr, 35)
	}
}

// read serves the variable-read service: length-prefixed item name, looked
// up in the bilateral table. The name read is the second seeded SEGV.
func (s *Server) read(tr *coverage.Tracer, rest []byte) {
	if len(rest) < 1 {
		s.hit(tr, 36)
		return
	}
	nameLen := int(rest[0])
	// BUG(seeded, Table I libiec_iccp_mod SEGV #2): nameLen is trusted.
	name := string(rest[1 : 1+nameLen])
	if v, ok := s.table[name]; ok {
		s.hit(tr, 37)
		if len(v) > 1 {
			s.hit(tr, 38)
		}
	} else {
		s.hit(tr, 39)
	}
}

// write serves the variable-write service: length-prefixed name, one-octet
// value length, value bytes. The value copy is the seeded heap overflow.
func (s *Server) write(tr *coverage.Tracer, rest []byte) {
	if len(rest) < 2 {
		s.hit(tr, 40)
		return
	}
	nameLen := int(rest[0])
	if 1+nameLen+1 > len(rest) {
		s.hit(tr, 41)
		return
	}
	name := string(rest[1 : 1+nameLen])
	vLen := int(rest[1+nameLen])
	if 2+nameLen+vLen > len(rest) {
		s.hit(tr, 42)
		return
	}
	value := rest[2+nameLen : 2+nameLen+vLen]
	if _, ok := s.table[name]; !ok {
		s.hit(tr, 43)
		return
	}
	s.hit(tr, 44)
	// BUG(seeded, Table I libiec_iccp_mod heap-buffer-overflow): the
	// value is copied into the fixed 32-byte buffer with the supplied
	// length — the strcpy idiom of the original code.
	s.heap.StoreN(s.valueBuf, value, "iccp.write.value_copy")
	s.table[name] = append([]byte(nil), value...)
}

// defineNamedList creates a transfer set from a counted element list; each
// element is a 4-byte entry. The element loop is the third seeded SEGV.
func (s *Server) defineNamedList(tr *coverage.Tracer, rest []byte) {
	if len(rest) < 1 {
		s.hit(tr, 45)
		return
	}
	count := int(rest[0])
	if count == 0 {
		s.hit(tr, 46)
		return
	}
	elems := rest[1:]
	valid := 0
	for i := 0; i < count; i++ {
		// BUG(seeded, Table I libiec_iccp_mod SEGV #3): the count is
		// trusted over the actual element bytes.
		e := elems[4*i : 4*i+4]
		if e[0] == 0x30 {
			s.hit(tr, 47)
			valid++
		} else {
			s.hit(tr, 48)
		}
	}
	if valid > 0 {
		s.hit(tr, 49)
		s.transferSets++
	}
}

func init() {
	targets.Register("libiccp", func() targets.Target { return New() })
}
