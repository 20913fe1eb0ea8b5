package modbus

import (
	"repro/internal/coverage"
	"repro/internal/datamodel"
)

// Extended function codes: the remainder of the libmodbus-served set plus
// the encapsulated-interface transport. These live in their own file to
// mirror how libmodbus splits core register access from auxiliary
// services.
const (
	fcReadFileRecord  = 0x14
	fcWriteFileRecord = 0x15
	fcReadFIFOQueue   = 0x18
	fcEncapsulated    = 0x2B
	meiDeviceID       = 0x0E
	refTypeFileRecord = 0x06
	maxFileRecords    = 4
	recordsPerFile    = 32
)

// fileRecords is the file-record storage of the server (FC 0x14/0x15).
type fileRecords [maxFileRecords][recordsPerFile]uint16

// extendedDispatch serves the auxiliary function codes; it is called from
// Handle's switch via the hook below.
func (s *Server) extendedDispatch(tr *coverage.Tracer, fc byte, pdu []byte) bool {
	switch fc {
	case fcReadFileRecord:
		s.hit(tr, 110)
		s.readFileRecord(tr, pdu)
	case fcWriteFileRecord:
		s.hit(tr, 111)
		s.writeFileRecord(tr, pdu)
	case fcReadFIFOQueue:
		s.hit(tr, 112)
		s.readFIFOQueue(tr, pdu)
	case fcEncapsulated:
		s.hit(tr, 113)
		s.encapsulated(tr, pdu)
	default:
		return false
	}
	return true
}

// readFileRecord serves FC 0x14: byte count, then 7-byte sub-requests
// (reference type, file number, record number, record length).
func (s *Server) readFileRecord(tr *coverage.Tracer, pdu []byte) {
	if len(pdu) < 2 {
		s.hit(tr, 114)
		return
	}
	byteCount := int(pdu[1])
	if byteCount < 7 || byteCount > 0xF5 || len(pdu) != 2+byteCount {
		s.hit(tr, 115)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if byteCount%7 != 0 {
		s.hit(tr, 116)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	var resp []byte
	for off := 2; off < 2+byteCount; off += 7 {
		sub := pdu[off : off+7]
		if sub[0] != refTypeFileRecord {
			s.hit(tr, 117)
			s.exception(tr, pdu[0], exIllegalAddress)
			return
		}
		file := int(be16(sub[1:]))
		rec := int(be16(sub[3:]))
		length := int(be16(sub[5:]))
		if file >= maxFileRecords || rec+length > recordsPerFile {
			s.hit(tr, 118)
			s.exception(tr, pdu[0], exIllegalAddress)
			return
		}
		s.hit(tr, 119)
		resp = append(resp, byte(1+2*length), refTypeFileRecord)
		for i := 0; i < length; i++ {
			v := s.files[file][rec+i]
			resp = append(resp, byte(v>>8), byte(v))
		}
	}
	s.respond(tr, append([]byte{pdu[0], byte(len(resp))}, resp...))
}

// writeFileRecord serves FC 0x15: byte count, then variable sub-requests
// carrying record data.
func (s *Server) writeFileRecord(tr *coverage.Tracer, pdu []byte) {
	if len(pdu) < 2 {
		s.hit(tr, 120)
		return
	}
	byteCount := int(pdu[1])
	if byteCount < 9 || len(pdu) != 2+byteCount {
		s.hit(tr, 121)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	off := 2
	for off < 2+byteCount {
		if off+7 > len(pdu) {
			s.hit(tr, 122)
			s.exception(tr, pdu[0], exIllegalValue)
			return
		}
		sub := pdu[off : off+7]
		if sub[0] != refTypeFileRecord {
			s.hit(tr, 123)
			s.exception(tr, pdu[0], exIllegalAddress)
			return
		}
		file := int(be16(sub[1:]))
		rec := int(be16(sub[3:]))
		length := int(be16(sub[5:]))
		if off+7+2*length > len(pdu) {
			s.hit(tr, 124)
			s.exception(tr, pdu[0], exIllegalValue)
			return
		}
		if file >= maxFileRecords || rec+length > recordsPerFile {
			s.hit(tr, 125)
			s.exception(tr, pdu[0], exIllegalAddress)
			return
		}
		s.hit(tr, 126)
		for i := 0; i < length; i++ {
			s.files[file][rec+i] = be16(pdu[off+7+2*i:])
		}
		off += 7 + 2*length
	}
	s.respond(tr, pdu)
}

// readFIFOQueue serves FC 0x18: the FIFO at the pointer address holds up
// to 31 registers; empty queues return a zero count.
func (s *Server) readFIFOQueue(tr *coverage.Tracer, pdu []byte) {
	if len(pdu) != 3 {
		s.hit(tr, 127)
		return
	}
	addr := int(be16(pdu[1:]))
	if addr >= nbHolding {
		s.hit(tr, 128)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	count := int(s.holding[addr]) // register at pointer = queue depth
	if count > 31 {
		s.hit(tr, 129)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if addr+1+count > nbHolding {
		s.hit(tr, 130)
		s.exception(tr, pdu[0], exIllegalAddress)
		return
	}
	s.hit(tr, 131)
	resp := []byte{pdu[0], 0, byte(2 * (count + 1)), 0, byte(count)}
	for i := 0; i < count; i++ {
		v := s.holding[addr+1+i]
		resp = append(resp, byte(v>>8), byte(v))
	}
	s.respond(tr, resp)
}

// deviceID objects served by the encapsulated-interface transport
// (FC 0x2B / MEI 0x0E), as libmodbus's bandwidth-server example provides.
var deviceID = map[byte]string{
	0x00: "ReproVendor",
	0x01: "PSTAR",
	0x02: "v1.0",
}

// encapsulated serves FC 0x2B: only the device-identification MEI type is
// implemented; the read-device-id code selects basic/regular/extended.
func (s *Server) encapsulated(tr *coverage.Tracer, pdu []byte) {
	if len(pdu) < 4 {
		s.hit(tr, 132)
		return
	}
	if pdu[1] != meiDeviceID {
		s.hit(tr, 133)
		s.exception(tr, pdu[0], exIllegalFunction)
		return
	}
	readCode := pdu[2]
	objectID := pdu[3]
	if readCode < 1 || readCode > 4 {
		s.hit(tr, 134)
		s.exception(tr, pdu[0], exIllegalValue)
		return
	}
	if readCode == 4 { // single object access
		val, ok := deviceID[objectID]
		if !ok {
			s.hit(tr, 135)
			s.exception(tr, pdu[0], exIllegalAddress)
			return
		}
		s.hit(tr, 136)
		s.respond(tr, append([]byte{pdu[0], meiDeviceID, readCode, 0x83, 0, 0, 1, objectID, byte(len(val))}, val...))
		return
	}
	s.hit(tr, 137)
	resp := []byte{pdu[0], meiDeviceID, readCode, 0x83, 0, 0, byte(len(deviceID))}
	for id := byte(0); id <= 0x02; id++ {
		val := deviceID[id]
		resp = append(resp, id, byte(len(val)))
		resp = append(resp, val...)
		s.hit(tr, 138)
	}
	s.respond(tr, resp)
}

// HandleRTU processes a Modbus RTU frame: slave address, PDU, CRC16
// little-endian — the serial path of libmodbus, sharing the PDU dispatch
// with the TCP path. Registered as its own packet family in the models.
func (s *Server) HandleRTU(tr *coverage.Tracer, frame []byte) {
	s.hit(tr, 140)
	if len(frame) < 4 {
		s.hit(tr, 141)
		return
	}
	addr := frame[0]
	if addr != 1 && addr != 0 { // our slave id or broadcast
		s.hit(tr, 142)
		return
	}
	data := frame[:len(frame)-2]
	crc := uint16(frame[len(frame)-2]) | uint16(frame[len(frame)-1])<<8
	if datamodel.CRC16ModbusSum(data) != crc {
		s.hit(tr, 143)
		return
	}
	s.hit(tr, 144)
	s.dispatchPDU(tr, frame[1:len(frame)-2])
}
