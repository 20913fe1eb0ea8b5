package iec61850

import (
	"sort"

	"repro/internal/coverage"
)

// MMS file services use high-tag-number confirmed-service tags: fileOpen
// [72], fileRead [73], fileClose [74], fileDirectory [77]. On the wire the
// context+constructed leading octet 0xBF composes with the tag number.
const (
	svcFileOpen      = 0xBF48
	svcFileRead      = 0xBF49
	svcFileClose     = 0xBF4A
	svcFileDirectory = 0xBF4D
)

// graphicString is the BER tag of MMS file names.
const tagGraphicString = 0x19

// fileState is the server's file store plus the open FRSM (file read state
// machine) table, as libiec61850's MmsFileService keeps.
type fileState struct {
	files    map[string][]byte
	frsm     map[uint32]*frsmEntry
	nextFRSM uint32
}

type frsmEntry struct {
	name string
	pos  int
}

// frsmLimit bounds concurrently open files, as the C implementation's
// CONFIG_MMS_MAX_NUMBER_OF_OPEN_FILES_PER_CONNECTION.
const frsmLimit = 4

// fileChunkSize is the per-read chunk, far below the real 64 KiB to keep
// multi-chunk reads reachable with small packets.
const fileChunkSize = 32

func newFileState() fileState {
	return fileState{
		files: map[string][]byte{
			"IEDSERVER.BIN":   make([]byte, 70),
			"COMTRADE/R1.CFG": []byte("station,device,1999\n1,1A,P\n"),
			"COMTRADE/R1.DAT": make([]byte, 90),
			"model.icd":       []byte("<SCL><IED name=\"simpleIO\"/></SCL>"),
		},
		frsm:     map[uint32]*frsmEntry{},
		nextFRSM: 1,
	}
}

// dispatchFileService serves the file-service tags; returns false when the
// tag is not a file service.
func (s *Server) dispatchFileService(tr *coverage.Tracer, d *berDecoder, tag int, body []byte) bool {
	switch tag {
	case svcFileOpen:
		s.hit(tr, 90)
		s.fileOpen(tr, d, body)
	case svcFileRead:
		s.hit(tr, 91)
		s.fileRead(tr, d, body)
	case svcFileClose:
		s.hit(tr, 92)
		s.fileClose(tr, d, body)
	case svcFileDirectory:
		s.hit(tr, 93)
		s.fileDirectory(tr, d, body)
	default:
		return false
	}
	return true
}

// fileOpen parses a [0] fileName sequence holding one GraphicString and an
// optional [1] initial position, allocating an FRSM on success.
func (s *Server) fileOpen(tr *coverage.Tracer, d *berDecoder, body []byte) {
	nameSeq, ok := d.expect(body, 0xA0)
	if !ok {
		return
	}
	ge, ok := d.expect(nameSeq.val, tagGraphicString)
	if !ok {
		return
	}
	name, ok := fileName(ge.val)
	if !ok {
		s.hit(tr, 94)
		return
	}
	content, found := s.fs.files[name]
	if !found {
		s.hit(tr, 95) // file-non-existent
		return
	}
	pos := 0
	if pe, ok2 := d.next(nameSeq.rest); ok2 && pe.tag == 0x81 {
		if v, ok3 := d.uintVal(pe); ok3 {
			pos = int(v)
		}
	}
	if pos > len(content) {
		s.hit(tr, 96) // file-position-invalid
		return
	}
	if len(s.fs.frsm) >= frsmLimit {
		s.hit(tr, 97) // too many open files
		return
	}
	s.hit(tr, 98)
	id := s.fs.nextFRSM
	s.fs.nextFRSM++
	s.fs.frsm[id] = &frsmEntry{name: name, pos: pos}
}

// fileRead serves one chunk from an open FRSM; the response would carry
// moreFollows, modeled by the branch split below.
func (s *Server) fileRead(tr *coverage.Tracer, d *berDecoder, body []byte) {
	ie, ok := d.expect(body, 0x02)
	if !ok {
		return
	}
	id, ok := d.uintVal(ie)
	if !ok {
		return
	}
	f, found := s.fs.frsm[id]
	if !found {
		s.hit(tr, 99) // frsm-id invalid
		return
	}
	content := s.fs.files[f.name]
	remaining := len(content) - f.pos
	if remaining <= 0 {
		s.hit(tr, 100)
		return
	}
	if remaining > fileChunkSize {
		s.hit(tr, 101) // moreFollows = true
		f.pos += fileChunkSize
	} else {
		s.hit(tr, 102) // final chunk
		f.pos = len(content)
	}
}

// fileClose releases an FRSM.
func (s *Server) fileClose(tr *coverage.Tracer, d *berDecoder, body []byte) {
	ie, ok := d.expect(body, 0x02)
	if !ok {
		return
	}
	id, ok := d.uintVal(ie)
	if !ok {
		return
	}
	if _, found := s.fs.frsm[id]; !found {
		s.hit(tr, 103)
		return
	}
	s.hit(tr, 104)
	delete(s.fs.frsm, id)
}

// fileDirectory lists files under a [0] path prefix (empty = all).
func (s *Server) fileDirectory(tr *coverage.Tracer, d *berDecoder, body []byte) {
	prefix := ""
	if len(body) > 0 {
		pe, ok := d.next(body)
		if !ok {
			return
		}
		if pe.tag == 0xA0 {
			ge, ok := d.expect(pe.val, tagGraphicString)
			if !ok {
				return
			}
			p, ok := fileName(ge.val)
			if !ok {
				s.hit(tr, 105)
				return
			}
			prefix = p
		}
	}
	var names []string
	for name := range s.fs.files {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		s.hit(tr, 106)
		return
	}
	for range names {
		s.hit(tr, 107)
	}
}

// fileName validates an MMS file name: printable ASCII, '/'-separated, no
// traversal ("..") components — the screening the C library applies.
func fileName(raw []byte) (string, bool) {
	if len(raw) == 0 || len(raw) > 64 {
		return "", false
	}
	for _, b := range raw {
		ok := b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' ||
			b >= '0' && b <= '9' || b == '.' || b == '/' || b == '_' || b == '-'
		if !ok {
			return "", false
		}
	}
	name := string(raw)
	for i := 0; i+1 < len(name); i++ {
		if name[i] == '.' && name[i+1] == '.' {
			return "", false
		}
	}
	return name, true
}
