// Package cloak implements the ReverseCloak reversible multi-level location
// cloaking algorithms: Reversible Global Expansion (RGE) and Reversible
// Pre-assignment-based Local Expansion (RPLE).
//
// A cloaking region is a connected set of road segments grown from the
// user's segment (level L^0). For each privacy level L^i the engine appends
// segments, selected pseudo-randomly under that level's secret key, until
// the level's k-anonymity, segment l-diversity and spatial-tolerance
// requirements are met. Because every selection is keyed, a data requester
// holding the keys of the upper levels can peel them off in exact reverse
// order ("de-anonymization"), while without the keys every candidate
// removal looks equally plausible even with full knowledge of the
// algorithm.
//
// The published artifact (CloakedRegion) contains only the final segment
// set plus non-positional metadata (per-level step counts, retry salts and
// spatial tolerances); the insertion order — the information the keys
// protect — never leaves the anonymizer.
package cloak

import (
	"errors"
	"fmt"
	"sort"

	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Algorithm selects the expansion strategy.
type Algorithm int

// Supported algorithms.
const (
	// RGE is Reversible Global Expansion: the candidate set is every segment
	// adjacent to the current region, so the transition table changes at
	// every step (the engine keeps its rows and columns in order as the
	// region changes instead of rebuilding them).
	RGE Algorithm = iota + 1
	// RPLE is Reversible Pre-assignment-based Local Expansion: transitions
	// come from per-segment forward/backward lists pre-assigned once per
	// graph (Algorithm 1 of the paper).
	RPLE
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case RGE:
		return "RGE"
	case RPLE:
		return "RPLE"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// DensityFunc reports the current number of mobile users on a segment; it
// is the input to the location k-anonymity requirement. Implementations
// must be stable for the duration of one Anonymize call.
type DensityFunc func(roadnet.SegmentID) int

// Errors returned by the engine.
var (
	// ErrCloakFailed reports that a level could not be satisfied (expansion
	// stuck or spatial tolerance exhausted) within the retry budget.
	ErrCloakFailed = errors.New("cloak: cloaking failed")
	// ErrBadRequest reports an invalid anonymization request.
	ErrBadRequest = errors.New("cloak: bad request")
	// ErrBadRegion reports a malformed or tampered cloaked region.
	ErrBadRegion = errors.New("cloak: bad region")
	// ErrMissingKey reports a de-anonymization attempt without the key for a
	// level that must be peeled.
	ErrMissingKey = errors.New("cloak: missing key")
	// ErrIrreversible reports that de-anonymization could not recover a
	// consistent removal chain (wrong key or corrupted region).
	ErrIrreversible = errors.New("cloak: irreversible")
)

// LevelMeta is the public, non-positional metadata for one privacy level.
type LevelMeta struct {
	// Steps is the number of segments this level added.
	Steps int `json:"steps"`
	// Salt is the per-level retry counter used to seed the pseudo-random
	// stream (see Engine collision avoidance).
	Salt uint32 `json:"salt"`
	// SigmaS is the level's spatial tolerance in meters (0 = unbounded);
	// the de-anonymizer needs it to recompute candidate sets.
	SigmaS float64 `json:"sigma_s"`
	// Tags holds one keyed disambiguation tag per step when the level's
	// backward transitions would otherwise collide (regions much larger
	// than their candidate sets; see docs/ARCHITECTURE.md, "Inside the
	// cloak engine"). Each tag is a PRF output under the level key bound
	// to the step's added segment: key holders resolve each removal
	// uniquely, trying every member at the level's top step and only the
	// heads the backward transition names below it; without the key the
	// tags are indistinguishable from random and reveal nothing.
	// Nil for levels whose reversal is collision-free (the common case).
	Tags [][]byte `json:"tags,omitempty"`
}

// CloakedRegion is the published multi-level cloaked location.
type CloakedRegion struct {
	// Algorithm records which expansion produced the region.
	Algorithm Algorithm `json:"algorithm"`
	// Segments is the region's segment set at the highest privacy level,
	// sorted ascending. The insertion order is secret.
	Segments []roadnet.SegmentID `json:"segments"`
	// Levels holds the metadata of levels L^1 .. L^(N-1) in level order.
	Levels []LevelMeta `json:"levels"`
}

// PrivacyLevel returns the region's current privacy level index (N-1 for a
// freshly anonymized region, lower after peeling).
func (c *CloakedRegion) PrivacyLevel() int { return len(c.Levels) }

// Contains reports whether the region covers segment id.
func (c *CloakedRegion) Contains(id roadnet.SegmentID) bool {
	i := sort.Search(len(c.Segments), func(i int) bool { return c.Segments[i] >= id })
	return i < len(c.Segments) && c.Segments[i] == id
}

// SegmentSet returns the region's segments as a set.
func (c *CloakedRegion) SegmentSet() map[roadnet.SegmentID]bool {
	set := make(map[roadnet.SegmentID]bool, len(c.Segments))
	for _, id := range c.Segments {
		set[id] = true
	}
	return set
}

// Clone returns a deep copy.
func (c *CloakedRegion) Clone() *CloakedRegion {
	return &CloakedRegion{
		Algorithm: c.Algorithm,
		Segments:  append([]roadnet.SegmentID(nil), c.Segments...),
		Levels:    append([]LevelMeta(nil), c.Levels...),
	}
}

// validate checks structural sanity against a graph.
func (c *CloakedRegion) validate(g *roadnet.Graph) error {
	if c.Algorithm != RGE && c.Algorithm != RPLE {
		return fmt.Errorf("%w: unknown algorithm %d", ErrBadRegion, int(c.Algorithm))
	}
	if len(c.Segments) == 0 {
		return fmt.Errorf("%w: empty region", ErrBadRegion)
	}
	var steps int
	for i, lm := range c.Levels {
		if lm.Steps < 0 {
			return fmt.Errorf("%w: level %d has negative steps", ErrBadRegion, i+1)
		}
		if lm.SigmaS < 0 {
			return fmt.Errorf("%w: level %d has negative tolerance", ErrBadRegion, i+1)
		}
		if lm.Tags != nil && len(lm.Tags) != lm.Steps {
			return fmt.Errorf("%w: level %d has %d tags for %d steps",
				ErrBadRegion, i+1, len(lm.Tags), lm.Steps)
		}
		steps += lm.Steps
	}
	if steps != len(c.Segments)-1 {
		return fmt.Errorf("%w: %d level steps cannot yield %d segments",
			ErrBadRegion, steps, len(c.Segments))
	}
	for i, id := range c.Segments {
		if !g.HasSegment(id) {
			return fmt.Errorf("%w: unknown segment %d", ErrBadRegion, id)
		}
		if i > 0 && c.Segments[i-1] >= id {
			return fmt.Errorf("%w: segments not sorted/unique", ErrBadRegion)
		}
	}
	return nil
}

// tagSize is the truncated PRF tag length in bytes: 8 bytes gives a 2^-64
// per-pair collision probability, far below any region size.
const tagSize = 8
