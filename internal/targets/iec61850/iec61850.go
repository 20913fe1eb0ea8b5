package iec61850

import (
	"sort"

	"repro/internal/coverage"
	"repro/internal/targets"
)

// MMS PDU outer tags.
const (
	tagConfirmedReq = 0xA0
	tagInitiateReq  = 0xA8
	tagConcludeReq  = 0x8B
)

// Confirmed-service tags inside a confirmed-request.
const (
	svcStatus      = 0x80 // status-Request
	svcGetNameList = 0xA1
	svcIdentify    = 0x82
	svcRead        = 0xA4
	svcWrite       = 0xA5
	svcGetVarAttrs = 0xA6
	svcDefineNVL   = 0xAB
	svcGetNVLAttrs = 0xAC
	svcDeleteNVL   = 0xAD
)

// attribute is one leaf of the IED data model.
type attribute struct {
	fc       string // functional constraint (ST, MX, CO, CF, SP)
	typ      byte   // MMS type tag: 0x83 bool, 0x85 integer, 0x8A string
	value    []byte
	writable bool
}

// Server is the instrumented libiec61850 MMS server core.
type Server struct {
	id []coverage.BlockID // immutable block identity wired at construction

	cotpConnected bool
	sessionOpen   bool
	associated    bool

	// IED model: domain -> item path -> attribute.
	domains map[string]map[string]*attribute
	// Named variable lists: name -> member item paths.
	nvls map[string][]string

	invokeID uint32
	writes   int
	reads    int
	fs       fileState
}

// New returns a fresh server with the example IED model that ships with
// libiec61850's server examples (one logical device, LLN0 and a GGIO).
func New() *Server {
	s := &Server{
		id:      coverage.Blocks("libiec61850", 512),
		domains: map[string]map[string]*attribute{},
		nvls:    map[string][]string{},
		fs:      newFileState(),
	}
	d := map[string]*attribute{
		"LLN0$ST$Mod$stVal":      {fc: "ST", typ: 0x85, value: []byte{1}},
		"LLN0$ST$Beh$stVal":      {fc: "ST", typ: 0x85, value: []byte{1}},
		"LLN0$ST$Health$stVal":   {fc: "ST", typ: 0x85, value: []byte{1}},
		"LLN0$CF$Mod$ctlModel":   {fc: "CF", typ: 0x85, value: []byte{0}, writable: true},
		"GGIO1$ST$Ind1$stVal":    {fc: "ST", typ: 0x83, value: []byte{0}},
		"GGIO1$ST$Ind2$stVal":    {fc: "ST", typ: 0x83, value: []byte{0}},
		"GGIO1$MX$AnIn1$mag$f":   {fc: "MX", typ: 0x85, value: []byte{0, 42}},
		"GGIO1$CO$SPCSO1$Oper":   {fc: "CO", typ: 0x83, value: []byte{0}, writable: true},
		"GGIO1$SP$NamPlt$vendor": {fc: "SP", typ: 0x8A, value: []byte("MZA"), writable: true},
	}
	s.domains["simpleIOGenericIO"] = d
	s.nvls["simpleIOGenericIO/Events"] = []string{"GGIO1$ST$Ind1$stVal", "GGIO1$ST$Ind2$stVal"}
	return s
}

// Name implements targets.Target.
func (s *Server) Name() string { return "libiec61850" }

func (s *Server) hit(tr *coverage.Tracer, n int) { tr.Hit(s.id[n]) }

// Handle implements targets.Target: TPKT, COTP, ISO session, then MMS.
func (s *Server) Handle(tr *coverage.Tracer, pkt []byte) {
	s.hit(tr, 0)
	if len(pkt) < 7 {
		s.hit(tr, 1)
		return
	}
	if pkt[0] != 0x03 || pkt[1] != 0x00 {
		s.hit(tr, 2)
		return
	}
	if int(pkt[2])<<8|int(pkt[3]) != len(pkt) {
		s.hit(tr, 3)
		return
	}
	cotp := pkt[4:]
	hdrLen := int(cotp[0])
	if hdrLen < 2 || 1+hdrLen > len(cotp) {
		s.hit(tr, 4)
		return
	}
	switch cotp[1] {
	case 0xE0: // connection request
		s.hit(tr, 5)
		s.cotpConnected = true
		s.sessionOpen = false
		s.associated = false
	case 0x80: // disconnect request
		s.hit(tr, 6)
		s.cotpConnected = false
	case 0xF0: // data transfer
		if !s.cotpConnected {
			s.hit(tr, 7)
			return
		}
		if cotp[hdrLen]&0x80 == 0 { // EOT must be set (single TSDU)
			s.hit(tr, 8)
			return
		}
		s.hit(tr, 9)
		s.session(tr, cotp[1+hdrLen:])
	default:
		s.hit(tr, 10)
	}
}

// session handles the ISO session layer: CONNECT (0x0D) opens the session
// and carries the first MMS PDU in its user data; GIVE-TOKENS + DATA
// (0x01 0x00 0x01 0x00) prefixes subsequent PDUs.
func (s *Server) session(tr *coverage.Tracer, spdu []byte) {
	if len(spdu) < 2 {
		s.hit(tr, 11)
		return
	}
	switch spdu[0] {
	case 0x0D: // CONNECT
		ln := int(spdu[1])
		if 2+ln > len(spdu) {
			s.hit(tr, 12)
			return
		}
		s.hit(tr, 13)
		s.sessionOpen = true
		// User data follows the session parameters.
		s.mms(tr, spdu[2+ln:])
	case 0x01: // GIVE TOKENS, then DATA TRANSFER
		if !s.sessionOpen {
			s.hit(tr, 14)
			return
		}
		if len(spdu) < 4 || spdu[1] != 0x00 || spdu[2] != 0x01 || spdu[3] != 0x00 {
			s.hit(tr, 15)
			return
		}
		s.hit(tr, 16)
		s.mms(tr, spdu[4:])
	default:
		s.hit(tr, 17)
	}
}

// mms decodes the outer MMS PDU.
func (s *Server) mms(tr *coverage.Tracer, data []byte) {
	d := &berDecoder{s: s, tr: tr}
	pdu, ok := d.next(data)
	if !ok {
		return
	}
	switch pdu.tag {
	case tagInitiateReq:
		s.hit(tr, 18)
		s.initiate(tr, d, pdu.val)
	case tagConfirmedReq:
		if !s.associated {
			s.hit(tr, 19)
			return
		}
		s.hit(tr, 20)
		s.confirmed(tr, d, pdu.val)
	case tagConcludeReq:
		s.hit(tr, 21)
		s.associated = false
	default:
		s.hit(tr, 22)
	}
}

// initiate parses the initiate-request parameter sequence: localDetail
// [0], max services calling/called [1]/[2], nest level [3], then the init
// detail. Parameters are optional but ordered, as in the MMS ASN.1.
func (s *Server) initiate(tr *coverage.Tracer, d *berDecoder, body []byte) {
	rest := body
	if len(rest) == 0 {
		s.hit(tr, 23)
		return
	}
	// localDetailCalling (optional).
	if e, ok := d.next(rest); ok && e.tag == 0x80 {
		if v, ok := d.uintVal(e); !ok || v < 1000 {
			s.hit(tr, 24)
			return
		}
		s.hit(tr, 25)
		rest = e.rest
	}
	// proposedMaxServOutstandingCalling [1] (required).
	e, ok := d.expect(rest, 0x81)
	if !ok {
		return
	}
	if v, ok2 := d.uintVal(e); !ok2 || v == 0 {
		s.hit(tr, 26)
		return
	}
	rest = e.rest
	// proposedMaxServOutstandingCalled [2] (required).
	e, ok = d.expect(rest, 0x82)
	if !ok {
		return
	}
	if v, ok2 := d.uintVal(e); !ok2 || v == 0 {
		s.hit(tr, 27)
		return
	}
	s.hit(tr, 28)
	s.associated = true
}

// confirmed parses invoke id + service and dispatches.
func (s *Server) confirmed(tr *coverage.Tracer, d *berDecoder, body []byte) {
	inv, ok := d.expect(body, 0x02) // invokeID INTEGER
	if !ok {
		return
	}
	id, ok := d.uintVal(inv)
	if !ok {
		return
	}
	s.invokeID = id
	svc, ok := d.next(inv.rest)
	if !ok {
		return
	}
	switch svc.tag {
	case svcStatus:
		s.hit(tr, 29)
	case svcIdentify:
		s.hit(tr, 30)
	case svcGetNameList:
		s.hit(tr, 31)
		s.getNameList(tr, d, svc.val)
	case svcRead:
		s.hit(tr, 32)
		s.read(tr, d, svc.val)
	case svcWrite:
		s.hit(tr, 33)
		s.write(tr, d, svc.val)
	case svcGetVarAttrs:
		s.hit(tr, 34)
		s.getVarAttrs(tr, d, svc.val)
	case svcDefineNVL:
		s.hit(tr, 35)
		s.defineNVL(tr, d, svc.val)
	case svcGetNVLAttrs:
		s.hit(tr, 36)
		s.getNVLAttrs(tr, d, svc.val)
	case svcDeleteNVL:
		s.hit(tr, 37)
		s.deleteNVL(tr, d, svc.val)
	default:
		if !s.dispatchFileService(tr, d, svc.tag, svc.val) {
			s.hit(tr, 38)
		}
	}
}

// getNameList serves object discovery: objectClass [0], objectScope [1]
// with vmd [0] / domain [1] alternatives, optional continueAfter [2].
func (s *Server) getNameList(tr *coverage.Tracer, d *berDecoder, body []byte) {
	cls, ok := d.expect(body, 0x80)
	if !ok {
		return
	}
	class, ok := d.uintVal(cls)
	if !ok {
		return
	}
	scope, ok := d.next(cls.rest)
	if !ok {
		return
	}
	var names []string
	switch scope.tag {
	case 0xA1: // scope: sub-choice inside
		sub, ok := d.next(scope.val)
		if !ok {
			return
		}
		switch sub.tag {
		case 0x80: // vmd-specific
			s.hit(tr, 39)
			if class == 9 { // domain objects
				s.hit(tr, 40)
				for dom := range s.domains {
					names = append(names, dom)
				}
			} else {
				s.hit(tr, 41)
			}
		case 0x81: // domain-specific
			dom, ok := d.visibleString(sub)
			if !ok {
				return
			}
			items, found := s.domains[dom]
			if !found {
				s.hit(tr, 42)
				return
			}
			switch class {
			case 0: // named variables
				s.hit(tr, 43)
				for item := range items {
					names = append(names, item)
				}
			case 2: // named variable lists
				s.hit(tr, 44)
				for nvl := range s.nvls {
					names = append(names, nvl)
				}
			default:
				s.hit(tr, 45)
			}
		default:
			s.hit(tr, 46)
			return
		}
	default:
		s.hit(tr, 47)
		return
	}
	sort.Strings(names)
	// continueAfter narrows the listing — hit per surviving name, the
	// response-building loop.
	if ca, ok := d.next(scope.rest); ok && ca.tag == 0x82 {
		s.hit(tr, 48)
		after, ok := d.visibleString(ca)
		if !ok {
			return
		}
		for _, n := range names {
			if n > after {
				s.hit(tr, 49)
			}
		}
		return
	}
	for range names {
		s.hit(tr, 50)
	}
}

// objectName parses an MMS ObjectName CHOICE: domain-specific [1] is a
// sequence of domainID and itemID visible strings.
func (s *Server) objectName(tr *coverage.Tracer, d *berDecoder, data []byte) (dom, item string, rest []byte, ok bool) {
	name, ok := d.next(data)
	if !ok {
		return "", "", nil, false
	}
	if name.tag != 0xA1 { // only domain-specific names are served
		s.hit(tr, 51)
		return "", "", nil, false
	}
	de, ok := d.expect(name.val, 0x1A)
	if !ok {
		return "", "", nil, false
	}
	dom, ok = d.visibleString(de)
	if !ok {
		return "", "", nil, false
	}
	ie, ok := d.expect(de.rest, 0x1A)
	if !ok {
		return "", "", nil, false
	}
	item, ok = d.visibleString(ie)
	if !ok {
		return "", "", nil, false
	}
	s.hit(tr, 52)
	return dom, item, name.rest, true
}

// lookup resolves a domain/item pair against the IED model.
func (s *Server) lookup(tr *coverage.Tracer, dom, item string) *attribute {
	items, found := s.domains[dom]
	if !found {
		s.hit(tr, 53)
		return nil
	}
	attr, found := items[item]
	if !found {
		s.hit(tr, 54)
		return nil
	}
	s.hit(tr, 55)
	return attr
}

// read serves the read service: variableAccessSpecification [1] with a
// listOfVariable [0], each entry a sequence holding an ObjectName. NVL
// reads ([1] variableListName) expand the list's members.
func (s *Server) read(tr *coverage.Tracer, d *berDecoder, body []byte) {
	spec, ok := d.next(body)
	if !ok {
		return
	}
	switch spec.tag {
	case 0xA0: // specification with modifiers — unsupported
		s.hit(tr, 56)
	case 0xA1: // listOfVariable
		list, ok := d.expect(spec.val, 0xA0)
		if !ok {
			return
		}
		rest := list.val
		count := 0
		for len(rest) > 0 && count < 32 {
			seq, ok := d.expect(rest, 0x30)
			if !ok {
				return
			}
			dom, item, _, ok := s.objectName(tr, d, seq.val)
			if !ok {
				return
			}
			attr := s.lookup(tr, dom, item)
			if attr != nil {
				s.reads++
				switch attr.typ {
				case 0x83:
					s.hit(tr, 57)
				case 0x85:
					s.hit(tr, 58)
				case 0x8A:
					s.hit(tr, 59)
				}
				switch attr.fc {
				case "ST":
					s.hit(tr, 60)
				case "MX":
					s.hit(tr, 61)
				case "CO":
					s.hit(tr, 62)
				default:
					s.hit(tr, 63)
				}
			}
			rest = seq.rest
			count++
		}
		if count > 1 {
			s.hit(tr, 64)
		}
	case 0xA2: // variableListName: read a whole NVL
		dom, item, _, ok := s.objectName(tr, d, spec.val)
		if !ok {
			return
		}
		members, found := s.nvls[dom+"/"+item]
		if !found {
			s.hit(tr, 65)
			return
		}
		s.hit(tr, 66)
		for _, m := range members {
			if s.lookup(tr, dom, m) != nil {
				s.reads++
				s.hit(tr, 67)
			}
		}
	default:
		s.hit(tr, 68)
	}
}

// write serves the write service: the variable spec followed by
// listOfData; type tags must match the model and the attribute must be
// writable (access control).
func (s *Server) write(tr *coverage.Tracer, d *berDecoder, body []byte) {
	spec, ok := d.expect(body, 0xA1)
	if !ok {
		return
	}
	list, ok := d.expect(spec.val, 0xA0)
	if !ok {
		return
	}
	seq, ok := d.expect(list.val, 0x30)
	if !ok {
		return
	}
	dom, item, _, ok := s.objectName(tr, d, seq.val)
	if !ok {
		return
	}
	dataList, ok := d.expect(spec.rest, 0xA0)
	if !ok {
		return
	}
	val, ok := d.next(dataList.val)
	if !ok {
		return
	}
	attr := s.lookup(tr, dom, item)
	if attr == nil {
		return
	}
	if !attr.writable {
		s.hit(tr, 69) // temporarily-unavailable / access-denied
		return
	}
	if val.tag != int(attr.typ) {
		s.hit(tr, 70) // type-inconsistent
		return
	}
	if len(val.val) == 0 || len(val.val) > 64 {
		s.hit(tr, 71)
		return
	}
	s.hit(tr, 72)
	attr.value = append([]byte(nil), val.val...)
	s.writes++
}

// getVarAttrs serves getVariableAccessAttributes: an ObjectName whose type
// description is returned.
func (s *Server) getVarAttrs(tr *coverage.Tracer, d *berDecoder, body []byte) {
	dom, item, _, ok := s.objectName(tr, d, body)
	if !ok {
		return
	}
	attr := s.lookup(tr, dom, item)
	if attr == nil {
		return
	}
	switch attr.typ {
	case 0x83:
		s.hit(tr, 73)
	case 0x85:
		s.hit(tr, 74)
	default:
		s.hit(tr, 75)
	}
}

// defineNVL creates a named variable list: NVL ObjectName + listOfVariable.
func (s *Server) defineNVL(tr *coverage.Tracer, d *berDecoder, body []byte) {
	dom, item, rest, ok := s.objectName(tr, d, body)
	if !ok {
		return
	}
	key := dom + "/" + item
	if _, exists := s.nvls[key]; exists {
		s.hit(tr, 76) // object-exists
		return
	}
	list, ok := d.expect(rest, 0xA0)
	if !ok {
		return
	}
	var members []string
	lrest := list.val
	for len(lrest) > 0 && len(members) < 16 {
		seq, ok := d.expect(lrest, 0x30)
		if !ok {
			return
		}
		mdom, mitem, _, ok := s.objectName(tr, d, seq.val)
		if !ok {
			return
		}
		if s.lookup(tr, mdom, mitem) == nil {
			s.hit(tr, 77)
			return
		}
		members = append(members, mitem)
		lrest = seq.rest
	}
	if len(members) == 0 {
		s.hit(tr, 78)
		return
	}
	s.hit(tr, 79)
	s.nvls[key] = members
}

// getNVLAttrs lists an NVL's members.
func (s *Server) getNVLAttrs(tr *coverage.Tracer, d *berDecoder, body []byte) {
	dom, item, _, ok := s.objectName(tr, d, body)
	if !ok {
		return
	}
	members, found := s.nvls[dom+"/"+item]
	if !found {
		s.hit(tr, 80)
		return
	}
	s.hit(tr, 81)
	for range members {
		s.hit(tr, 82)
	}
}

// deleteNVL removes an NVL; the preconfigured list is protected.
func (s *Server) deleteNVL(tr *coverage.Tracer, d *berDecoder, body []byte) {
	dom, item, _, ok := s.objectName(tr, d, body)
	if !ok {
		return
	}
	key := dom + "/" + item
	if _, found := s.nvls[key]; !found {
		s.hit(tr, 83)
		return
	}
	if key == "simpleIOGenericIO/Events" {
		s.hit(tr, 84) // access-denied for the config-defined list
		return
	}
	s.hit(tr, 85)
	delete(s.nvls, key)
}

func init() {
	targets.Register("libiec61850", func() targets.Target { return New() })
}
