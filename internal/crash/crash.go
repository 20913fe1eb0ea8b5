// Package crash collects and deduplicates the crashes and hangs a fuzzing
// campaign finds, producing the per-project vulnerability counts of the
// paper's Table I.
//
// Deduplication follows the paper's reporting: Table I counts *unique*
// vulnerabilities, identified by where the fault fired and what kind it was
// (an ASan report site), not by how many inputs reached it.
package crash

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mem"
)

// Record is one unique fault: its identity, an example triggering packet,
// and campaign statistics.
type Record struct {
	Kind    mem.FaultKind
	Site    string
	Example []byte // first packet observed to trigger the fault
	Count   int    // number of triggering executions
	// FirstExec is the execution index of the first trigger, counted by
	// the engine that found it. In a bank merged from parallel workers it
	// is the smallest *per-worker* index — worker-local clocks are not
	// comparable across workers, so treat it as "how early into its
	// budget a worker hit this", not a campaign-global position.
	FirstExec int
	PathSig   uint64 // coverage signature of the first triggering run
	// Sequence, when non-nil, is the replayable reproducer: the exact
	// packet sequence (oldest first, Example last) that drove a
	// supervised target process from a fresh start to this fault. Replay
	// it against a fresh instance to reproduce the same crash signature.
	// Nil for in-process faults, which single-packet Example reproduces,
	// and for records received over the fleet sync wire.
	Sequence [][]byte
	// SeqStarts, when Sequence is non-nil, holds the indices into Sequence
	// where a protocol session began (ascending; a plain single-session
	// journal has none or just {0}). Replaying a stateful reproducer must
	// re-run the session setup at each boundary — fresh connection, fresh
	// server-side sequence numbers — rather than pushing every packet down
	// one connection; see executor.ReplaySession.
	SeqStarts []int
}

// HangRecord is one class of hanging execution, keyed by the offending
// packet's prefix: the context a hang report needs to be triaged — how much
// budget the execution was allowed before the supervisor classified it as
// hung (the process executor's watchdog timeout in milliseconds; in-process
// executions never hang), and the input that drove it there.
type HangRecord struct {
	// Budget is the exhausted allowance, in watchdog milliseconds.
	Budget int
	// Prefix is the offending packet's first HangPrefixLen bytes.
	Prefix []byte
	// Count is the number of hanging executions in this class.
	Count int
}

// HangPrefixLen bounds the packet prefix retained per hang class: enough
// to identify the opcode and leading structure that wedged the target,
// bounded so a campaign's hang bank never holds unbounded input bytes.
const HangPrefixLen = 32

// maxHangClasses bounds the number of distinct hang classes retained;
// further classes are tallied in the hang count only. Hangs beyond a few
// dozen distinct prefixes are a property of the target, not new triage
// information.
const maxHangClasses = 64

// Key returns the deduplication identity of a fault.
func Key(f *mem.Fault) string {
	return string(f.Kind) + "@" + f.Site
}

// RecordKey is Key for an already-materialized record — the one identity
// used everywhere a record is deduplicated: bank merges, and the network
// transport's sent-record suppression.
func RecordKey(r *Record) string {
	return string(r.Kind) + "@" + r.Site
}

// Bank accumulates unique crash records across a campaign. All methods are
// safe for concurrent use: parallel campaign workers report into their own
// banks while a monitor may snapshot records, and the shard runner merges
// worker banks into a campaign-level one.
type Bank struct {
	mu        sync.Mutex
	byKey     map[string]*Record
	hangs     int
	hangByKey map[string]*HangRecord // dedup index; rebuilt by Restore from hangOrder
	hangOrder []*HangRecord
}

// NewBank returns an empty crash bank.
func NewBank() *Bank {
	return &Bank{byKey: make(map[string]*Record)}
}

// Report records one crashing execution. It returns true when the fault is
// new (a previously unseen unique vulnerability). seq, when non-nil, is the
// replayable reproducer journal (the packet sequence since the target last
// started, packet last), and starts lists the indices into seq where a
// protocol session began, so the stored reproducer replays with the same
// session structure the fuzzer drove (Record.SeqStarts). The sequence
// travels with the record that owns the example packet: the first
// observation of the fault keeps its journal, later duplicates only count.
func (b *Bank) Report(f *mem.Fault, packet []byte, seq [][]byte, starts []int, execIndex int, pathSig uint64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := Key(f)
	if r, ok := b.byKey[k]; ok {
		r.Count++
		return false
	}
	ex := make([]byte, len(packet))
	copy(ex, packet)
	b.byKey[k] = &Record{
		Kind:      f.Kind,
		Site:      f.Site,
		Example:   ex,
		Count:     1,
		FirstExec: execIndex,
		PathSig:   pathSig,
		Sequence:  copySequence(seq),
	}
	if seq != nil && len(starts) > 0 {
		b.byKey[k].SeqStarts = append([]int(nil), starts...)
	}
	return true
}

// copySequence deep-copies a reproducer journal so the bank's record is
// detached from the executor's live buffers.
func copySequence(seq [][]byte) [][]byte {
	if seq == nil {
		return nil
	}
	out := make([][]byte, len(seq))
	for i, p := range seq {
		out[i] = append([]byte(nil), p...)
	}
	return out
}

// ReportHang counts a hanging execution and files its triage
// context: the exhausted budget (the process executor's watchdog timeout,
// in milliseconds) and the offending packet, classed by its
// HangPrefixLen-byte prefix. At most maxHangClasses distinct classes are
// retained; the hang tally is always exact.
func (b *Bank) ReportHang(millis int, packet []byte) {
	prefix := packet
	if len(prefix) > HangPrefixLen {
		prefix = prefix[:HangPrefixLen]
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hangs++
	if b.hangByKey == nil {
		b.hangByKey = make(map[string]*HangRecord)
	}
	k := string(prefix)
	if h, ok := b.hangByKey[k]; ok {
		h.Count++
		return
	}
	if len(b.hangOrder) >= maxHangClasses {
		return
	}
	h := &HangRecord{
		Budget: millis,
		Prefix: append([]byte(nil), prefix...),
		Count:  1,
	}
	b.hangByKey[k] = h
	b.hangOrder = append(b.hangOrder, h)
}

// mergeHangLocked folds one already-detached hang class into the bank's
// hang bank (caller holds b.mu). Counts of a shared prefix class are
// summed; the hang tally itself is merged separately by the caller.
func (b *Bank) mergeHangLocked(h *HangRecord) {
	if b.hangByKey == nil {
		b.hangByKey = make(map[string]*HangRecord)
	}
	k := string(h.Prefix)
	if have, ok := b.hangByKey[k]; ok {
		have.Count += h.Count
		return
	}
	if len(b.hangOrder) >= maxHangClasses {
		return
	}
	b.hangByKey[k] = h
	b.hangOrder = append(b.hangOrder, h)
}

// HangRecords returns the retained hang classes in first-observation
// order, as detached copies.
func (b *Bank) HangRecords() []*HangRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*HangRecord, 0, len(b.hangOrder))
	for _, h := range b.hangOrder {
		cp := *h
		cp.Prefix = append([]byte(nil), h.Prefix...)
		out = append(out, &cp)
	}
	return out
}

// Unique returns the number of unique faults found.
func (b *Bank) Unique() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.byKey)
}

// Hangs returns the number of hanging executions observed.
func (b *Bank) Hangs() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hangs
}

// Records returns all unique faults, ordered by first discovery. The
// returned records are copies, detached from the bank's live state, so
// callers may inspect them while executions keep being reported.
func (b *Bank) Records() []*Record {
	b.mu.Lock()
	out := make([]*Record, 0, len(b.byKey))
	for _, r := range b.byKey {
		cp := *r
		out = append(out, &cp)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].FirstExec < out[j].FirstExec })
	return out
}

// MergeFrom folds another bank's faults into b, deduplicating by fault
// identity: counts of shared faults are summed (keeping the example packet
// and path signature of whichever trigger came first), unseen faults are
// copied in, and hangs are added. It returns how many faults were new to b. Merging the same source
// bank twice double-counts; the shard runner therefore merges worker banks
// into a fresh bank each time it reports.
func (b *Bank) MergeFrom(o *Bank) int {
	recs := o.Records() // snapshot under o's lock, released before taking b's
	hangs := o.Hangs()
	hangRecs := o.HangRecords()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.hangs += hangs
	for _, h := range hangRecs {
		b.mergeHangLocked(h)
	}
	added := 0
	for _, r := range recs {
		k := RecordKey(r)
		if have, ok := b.byKey[k]; ok {
			have.Count += r.Count
			if r.FirstExec < have.FirstExec {
				// The example packet and path signature describe the
				// first triggering run; they travel with its index.
				have.FirstExec = r.FirstExec
				have.Example = r.Example
				have.PathSig = r.PathSig
			}
			continue
		}
		b.byKey[k] = r // already a detached copy
		added++
	}
	return added
}

// Union returns the number of unique faults the banks hold together: the
// Unique of one bank that merged them all (MergeFrom, Absorb), counted
// without building it and without allocating. It holds every bank's lock
// at once, taken in argument order, and is the only code that holds two:
// callers must pass a given set of banks in one fixed order.
func Union(banks ...*Bank) int {
	for _, b := range banks {
		b.mu.Lock()
	}
	n := 0
	for i, b := range banks {
		for k := range b.byKey {
			// Bound first: peachlint's detsource rejects a call in a
			// map-range condition, though a count is order-free.
			earlier := holds(banks[:i], k)
			if !earlier {
				n++
			}
		}
	}
	for _, b := range banks {
		b.mu.Unlock()
	}
	return n
}

// holds reports whether any of banks holds the fault key k; the caller
// holds their locks.
func holds(banks []*Bank, k string) bool {
	for _, b := range banks {
		if _, ok := b.byKey[k]; ok {
			return true
		}
	}
	return false
}

// Absorb folds one record received from a sync peer into the bank,
// returning true when its fault identity was new. Unlike MergeFrom it is
// idempotent: re-absorbing a record a reconnecting peer re-sends never
// inflates counts — Count converges to the maximum reported, and the
// example packet and path signature follow the earliest FirstExec. The
// record is copied, so the caller may reuse its buffers.
func (b *Bank) Absorb(r *Record) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := RecordKey(r)
	if have, ok := b.byKey[k]; ok {
		if r.Count > have.Count {
			have.Count = r.Count
		}
		if r.FirstExec < have.FirstExec {
			have.FirstExec = r.FirstExec
			have.Example = append([]byte(nil), r.Example...)
			have.PathSig = r.PathSig
		}
		return false
	}
	cp := *r
	cp.Example = append([]byte(nil), r.Example...)
	b.byKey[k] = &cp
	return true
}

// String renders a one-line summary.
func (b *Bank) String() string {
	return fmt.Sprintf("crash.Bank{unique=%d hangs=%d}", b.Unique(), b.Hangs())
}
