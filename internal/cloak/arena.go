package cloak

import (
	"strconv"
	"sync/atomic"

	"github.com/reversecloak/reversecloak/internal/prng"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// arena is the scratch of one engine call: the dense region state, the
// search stacks, both steppers with their draw memos and the level MAC.
// Engines hand arenas out of a sync.Pool, so a steady request stream
// reuses the same few and the search allocates nothing. Whatever a call
// returns is copied out first — nothing published may alias an arena.
type arena struct {
	st     *state
	rge    rgeStepper
	rple   rpleStepper
	key    levelKey
	search reverseSearch

	seq  []roadnet.SegmentID // the level being expanded, in insertion order
	byID []roadnet.SegmentID // members by ascending ID, for the tag walk

	stats Stats // this call's counts, folded into the engine's at release
}

func newArena(tb *tables) *arena {
	n := len(tb.rank)
	return &arena{st: &state{tb: tb, cells: make([]cell, n), dens: make([]int, n)}}
}

// stepper returns the arena's stepper for the algorithm, re-pointed at the
// (level key, salt) stream. a.key.begin must have set the level key.
func (a *arena) stepper(algo Algorithm, pre *Preassignment, salt uint32) stepper {
	streamKey := a.key.streamKey(salt)
	if algo == RPLE {
		a.rple.pre = pre
		a.rple.draws.rekey(streamKey)
		return &a.rple
	}
	a.rge.draws.rekey(streamKey)
	return &a.rge
}

// levelKey is one level's secret as a reusable MAC. Both of the level's
// keyed derivations come from it — the stream key of each salt and the
// step tags — with labels built by strconv.Append* into one buffer.
type levelKey struct {
	mac   *prng.Keyed
	level int
	salt  uint32
	label []byte
}

func (lk *levelKey) begin(key []byte, level int) {
	lk.mac, lk.level = prng.NewKeyed(key), level
}

// streamKey derives the key of the (level, salt) pseudo-random stream and
// makes salt the one later tags are bound to. Both sides derive the label
// identically from public metadata. The result is valid until lk's next
// derivation.
func (lk *levelKey) streamKey(salt uint32) []byte {
	lk.salt = salt
	lk.label = appendStreamLabel(lk.label[:0], lk.level, salt)
	return lk.mac.Sum(lk.label)
}

// tag derives the keyed disambiguation tag for one step: the truncated
// PRF of (level, salt, step, segment). Valid until lk's next derivation.
func (lk *levelKey) tag(step int, seg roadnet.SegmentID) []byte {
	lk.label = appendTagLabel(lk.label[:0], lk.level, lk.salt, step, seg)
	return lk.mac.Sum(lk.label)[:tagSize]
}

// matches compares a published tag against the derived one.
func (lk *levelKey) matches(step int, seg roadnet.SegmentID, want []byte) bool {
	if len(want) != tagSize {
		return false
	}
	got := lk.tag(step, seg)
	var diff byte
	for i := range got {
		diff |= got[i] ^ want[i]
	}
	return diff == 0
}

// makeTags derives the per-step disambiguation tags for a level's
// insertion sequence, in one backing array.
func (lk *levelKey) makeTags(seq []roadnet.SegmentID) [][]byte {
	tags := make([][]byte, len(seq))
	backing := make([]byte, len(seq)*tagSize)
	for i, s := range seq {
		tags[i] = backing[i*tagSize : (i+1)*tagSize : (i+1)*tagSize]
		copy(tags[i], lk.tag(i+1, s))
	}
	return tags
}

// appendStreamLabel namespaces the pseudo-random stream of one (level,
// salt) pair: "reversecloak/level=L/salt=S".
func appendStreamLabel(b []byte, level int, salt uint32) []byte {
	b = append(b, "reversecloak/level="...)
	b = strconv.AppendInt(b, int64(level), 10)
	b = append(b, "/salt="...)
	return strconv.AppendUint(b, uint64(salt), 10)
}

// appendTagLabel namespaces a step's disambiguation tag:
// "reversecloak/tag/level=L/salt=S/step=T/seg=ID".
func appendTagLabel(b []byte, level int, salt uint32, step int, seg roadnet.SegmentID) []byte {
	b = append(b, "reversecloak/tag/level="...)
	b = strconv.AppendInt(b, int64(level), 10)
	b = append(b, "/salt="...)
	b = strconv.AppendUint(b, uint64(salt), 10)
	b = append(b, "/step="...)
	b = strconv.AppendInt(b, int64(step), 10)
	b = append(b, "/seg="...)
	return strconv.AppendInt(b, int64(seg), 10)
}

// Stats are an engine's cumulative counts since it was built: what its
// requests cost (searches and the nodes they expanded) and how its levels
// were settled. They are the engine-level SLIs the server exports on
// /metrics; every field only grows.
type Stats struct {
	// Searches counts the reader's hypothesis searches (one per tagless
	// level in Deanonymize) and the anonymizer's verifications (one per
	// tagless attempt in Anonymize). SearchesExhausted of them ran out of
	// node budget, SearchesEmpty of hypotheses, and SearchesAmbiguous are
	// verifications refuted by a complete chain the reader would take
	// before the true one; the rest found, or confirmed, the chain.
	// SearchNodes is the total of nodes actually expanded — the engine's
	// unit of work.
	Searches          uint64
	SearchesExhausted uint64
	SearchesEmpty     uint64
	SearchesAmbiguous uint64
	SearchNodes       uint64
	// TaglessLevels and TaggedLevels count the levels Anonymize accepted,
	// by whether it had to publish disambiguation tags.
	TaglessLevels uint64
	TaggedLevels  uint64
	// SaltRetries counts rejected (level, salt) attempts: stuck expansions
	// and levels that reversed neither tagless nor tagged.
	SaltRetries uint64
	// Refusals counts Anonymize calls that ended in ErrCloakFailed.
	Refusals uint64
}

// engineStats is Stats as atomics.
type engineStats struct {
	searches, exhausted, empty, ambiguous, nodes atomic.Uint64
	tagless, tagged, retries, refused            atomic.Uint64
}

// fold adds one call's counts; zero fields cost nothing.
func (es *engineStats) fold(s *Stats) {
	for _, c := range [...]struct {
		to *atomic.Uint64
		n  uint64
	}{
		{&es.searches, s.Searches}, {&es.exhausted, s.SearchesExhausted},
		{&es.empty, s.SearchesEmpty}, {&es.ambiguous, s.SearchesAmbiguous},
		{&es.nodes, s.SearchNodes},
		{&es.tagless, s.TaglessLevels}, {&es.tagged, s.TaggedLevels},
		{&es.retries, s.SaltRetries}, {&es.refused, s.Refusals},
	} {
		if c.n != 0 {
			c.to.Add(c.n)
		}
	}
	*s = Stats{}
}

func (es *engineStats) snapshot() Stats {
	return Stats{
		Searches: es.searches.Load(), SearchesExhausted: es.exhausted.Load(),
		SearchesEmpty: es.empty.Load(), SearchesAmbiguous: es.ambiguous.Load(),
		SearchNodes:   es.nodes.Load(),
		TaglessLevels: es.tagless.Load(), TaggedLevels: es.tagged.Load(),
		SaltRetries: es.retries.Load(), Refusals: es.refused.Load(),
	}
}
