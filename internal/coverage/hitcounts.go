package coverage

// This file implements the per-edge global hit accounting behind
// rarity-weighted seed selection: Virgin answers "has this (edge, bucket)
// ever been seen?", HitCounts answers "how often has this edge been lit
// across the campaign?". Seeds whose traces touch low-count edges exercise
// program states the campaign rarely reaches, which makes them the
// mutation bases and donor sources most likely to extend coverage — the
// AFL++ "favored by rarity" heuristic adapted to generation-based fuzzing.

// HitCounts is a sidecar of per-edge execution counters alongside a
// campaign's Virgin map: counts[i] is the number of executions that lit
// edge i at least once (not the summed raw hit counts — one execution
// contributes one, however hot its inner loop). Counters saturate instead
// of wrapping, so a campaign of any length keeps a total order on rarity.
//
// A HitCounts is not safe for concurrent use; each worker engine owns one,
// like its Tracer.
type HitCounts struct {
	counts [MapSize]uint32
	// execs is the number of executions accumulated, the denominator of
	// any frequency a consumer derives.
	execs uint64
}

// NewHitCounts returns an empty per-edge execution counter map.
func NewHitCounts() *HitCounts { return &HitCounts{} }

// Count returns how many accumulated executions lit the edge.
func (h *HitCounts) Count(edge uint16) uint32 { return h.counts[edge] }

// Execs returns the number of executions accumulated so far.
func (h *HitCounts) Execs() uint64 { return h.execs }

// RarityScore sums the rarity of the given edges in 16.16 fixed point: an
// edge seen by n executions contributes 2^16/n, so a seed's score is
// dominated by its rarest edges while common framing edges contribute
// almost nothing. Edges never accumulated (count 0 — possible when the
// edge list predates the sidecar) count as seen once.
func (h *HitCounts) RarityScore(edges []uint16) uint64 {
	var score uint64
	for _, e := range edges {
		n := h.counts[e]
		if n == 0 {
			n = 1
		}
		score += (1 << 16) / uint64(n)
	}
	return score
}
