// Package mem provides a simulated process heap with AddressSanitizer-like
// fault detection.
//
// The paper detects its Table I vulnerabilities (SEGV, heap-use-after-free,
// heap-buffer-overflow) with ASan on C targets. The Go targets in this
// repository cannot corrupt real memory, so buffer handling on the seeded
// bug paths goes through this package instead: an explicit heap with
// Alloc/Free/Load/Store whose safety checks report the same fault classes
// ASan would. Faults are reported by panicking with a *Fault value, which
// executor.InProc converts into a crash record — mirroring how an ASan abort
// surfaces to the fuzzer.
package mem

import "fmt"

// FaultKind classifies a detected memory-safety violation, using the names
// from the paper's Table I.
type FaultKind string

// Fault kinds reported by the simulated heap. These correspond one-to-one
// with the "Vulnerability Type" column of Table I.
const (
	SEGV               FaultKind = "SEGV"
	HeapUseAfterFree   FaultKind = "heap-use-after-free"
	HeapBufferOverflow FaultKind = "heap-buffer-overflow"
	DoubleFree         FaultKind = "double-free"
)

// Fault kinds reported by the real-process execution backend
// (internal/executor), where the supervisor observes deaths from the
// outside rather than through the simulated heap. Signal deaths in the
// SEGV class (SIGSEGV, SIGBUS) keep the Table I SEGV kind so both backends
// triage alike; these cover everything else a process can do.
const (
	// ProcExit is a target process exiting with a status mid-campaign
	// (abort paths, assertion failures, clean-but-unexpected shutdowns);
	// the site carries "exit:<code>".
	ProcExit FaultKind = "proc-exit"
	// ProcSignal is a target process killed by a signal outside the SEGV
	// class; the site carries "signal:<name>".
	ProcSignal FaultKind = "proc-signal"
	// ConnReset is a connection death whose process never delivered an
	// exit status — the supervisor saw the wire die but could not reap.
	ConnReset FaultKind = "conn-reset"
)

// Fault describes one detected memory-safety violation: what happened, at
// which simulated address, and at which named program site. Site is the
// stable deduplication key used by crash triage, playing the role of the
// file:line in an ASan report (cf. the paper's Listing 2).
type Fault struct {
	Kind FaultKind
	Addr uint32
	Site string
}

// Error implements the error interface so a *Fault can flow through error
// paths as well as panics.
func (f *Fault) Error() string {
	return fmt.Sprintf("AddressSanitizer: %s at simulated address 0x%08x in %s", f.Kind, f.Addr, f.Site)
}

// chunk is one live or freed allocation.
type chunk struct {
	base  uint32
	size  uint32
	freed bool
}

// Heap is a simulated heap. Addresses are opaque 32-bit values; allocations
// are placed with red zones between them so that small overflows land in
// detectable territory rather than in a neighbouring allocation.
//
// A Heap is not safe for concurrent use; each in-process execution owns one.
type Heap struct {
	next   uint32
	chunks []chunk
	bytes  map[uint32]byte
}

// redZone is the gap left between allocations, like ASan's red zones.
const redZone = 16

// NewHeap returns an empty heap. The zero address is never allocated, so 0
// behaves like NULL.
func NewHeap() *Heap {
	return &Heap{next: 0x1000}
}

// Reset discards all allocations, returning the heap to its initial state.
func (h *Heap) Reset() {
	h.next = 0x1000
	h.chunks = h.chunks[:0]
	h.bytes = nil
}

// Alloc reserves size bytes and returns the base address of the new chunk.
// A zero-byte allocation is legal and returns a unique address, as malloc(0)
// commonly does.
func (h *Heap) Alloc(size uint32) uint32 {
	base := h.next
	h.next += size + redZone
	h.chunks = append(h.chunks, chunk{base: base, size: size})
	return base
}

// find returns the chunk containing addr, or nil. Freed chunks are found
// too, so that use-after-free is distinguishable from a wild access.
func (h *Heap) find(addr uint32) *chunk {
	for i := range h.chunks {
		c := &h.chunks[i]
		if addr >= c.base && addr < c.base+c.size {
			return c
		}
		// A zero-size chunk still owns its base address for fault
		// classification.
		if c.size == 0 && addr == c.base {
			return c
		}
	}
	return nil
}

// Free releases the chunk based at addr. Freeing an unknown address raises
// SEGV (matching free() on a wild pointer under ASan); freeing twice raises
// a double-free fault.
func (h *Heap) Free(addr uint32, site string) {
	for i := range h.chunks {
		c := &h.chunks[i]
		if c.base == addr {
			if c.freed {
				panic(&Fault{Kind: DoubleFree, Addr: addr, Site: site})
			}
			c.freed = true
			return
		}
	}
	panic(&Fault{Kind: SEGV, Addr: addr, Site: site})
}

// check validates an n-byte access at addr and panics with the appropriate
// fault if it is invalid.
func (h *Heap) check(addr, n uint32, site string) *chunk {
	if addr == 0 {
		panic(&Fault{Kind: SEGV, Addr: addr, Site: site})
	}
	c := h.find(addr)
	if c == nil {
		// Access outside any chunk. If it lands just past a live
		// chunk (in the red zone) it is an overflow; otherwise a
		// wild access, i.e. SEGV.
		for i := range h.chunks {
			cc := &h.chunks[i]
			if !cc.freed && addr >= cc.base+cc.size && addr < cc.base+cc.size+redZone {
				panic(&Fault{Kind: HeapBufferOverflow, Addr: addr, Site: site})
			}
		}
		panic(&Fault{Kind: SEGV, Addr: addr, Site: site})
	}
	if c.freed {
		panic(&Fault{Kind: HeapUseAfterFree, Addr: addr, Site: site})
	}
	if addr+n > c.base+c.size {
		panic(&Fault{Kind: HeapBufferOverflow, Addr: addr, Site: site})
	}
	return c
}

// Load reads one byte at addr, checking validity.
func (h *Heap) Load(addr uint32, site string) byte {
	h.check(addr, 1, site)
	return h.bytes[addr]
}

// Store writes one byte at addr, checking validity.
func (h *Heap) Store(addr uint32, v byte, site string) {
	h.check(addr, 1, site)
	if h.bytes == nil {
		h.bytes = make(map[uint32]byte)
	}
	h.bytes[addr] = v
}

// LoadN reads n bytes starting at addr, checking the whole range.
func (h *Heap) LoadN(addr, n uint32, site string) []byte {
	h.check(addr, n, site)
	out := make([]byte, n)
	for i := uint32(0); i < n; i++ {
		out[i] = h.bytes[addr+i]
	}
	return out
}

// StoreN writes the bytes of p starting at addr, checking the whole range.
func (h *Heap) StoreN(addr uint32, p []byte, site string) {
	h.check(addr, uint32(len(p)), site)
	if h.bytes == nil {
		h.bytes = make(map[uint32]byte)
	}
	for i, b := range p {
		h.bytes[addr+uint32(i)] = b
	}
}
