package cloak

import (
	"fmt"
	"sync"

	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// Options configures an Engine.
type Options struct {
	// Algorithm selects RGE or RPLE.
	Algorithm Algorithm
	// Pre is the pre-assigned transition tables; required for RPLE, ignored
	// for RGE.
	Pre *Preassignment
	// MaxRetries bounds the per-level salt retries used for collision
	// avoidance. Defaults to 32.
	MaxRetries int
	// MaxSteps bounds the segments added per level. Defaults to 4096.
	MaxSteps int
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.MaxRetries == 0 {
		o.MaxRetries = 32
	}
	if o.MaxSteps == 0 {
		o.MaxSteps = 4096
	}
	return o
}

// Request is one anonymization request from a mobile client: the segment
// containing the user, the multi-level privacy profile and one secret key
// per level.
type Request struct {
	UserSegment roadnet.SegmentID
	Profile     profile.Profile
	// Keys holds Key_1 .. Key_{N-1} in level order; len(Keys) must equal
	// len(Profile.Levels).
	Keys [][]byte
}

// Trace is the anonymizer-side audit record of one cloaking run. It
// contains the secret insertion order and must never be published; it
// exists for verification, testing and the benchmark harness.
type Trace struct {
	// LevelSeqs[i] is the insertion-ordered list of segments added for
	// level L^(i+1).
	LevelSeqs [][]roadnet.SegmentID
	// StartHeads[i] is the head (last previously added segment) when level
	// L^(i+1) began expanding.
	StartHeads []roadnet.SegmentID
	// Salts[i] is the accepted retry salt per level.
	Salts []uint32
	// UsersCovered[i] is the user count covered after level L^(i+1).
	UsersCovered []int
}

// Engine anonymizes and de-anonymizes locations over one road network.
// An Engine is safe for concurrent use: the graph tables are immutable and
// every call works in its own arena from the engine's pool.
type Engine struct {
	g       *roadnet.Graph
	density DensityFunc
	opts    Options
	tb      *tables
	arenas  sync.Pool
	stats   engineStats
}

// NewEngine validates the configuration and returns an engine. It sorts
// the graph's segments into canonical order once, so that no request has
// to. density may be nil only for engines used exclusively to
// de-anonymize.
func NewEngine(g *roadnet.Graph, density DensityFunc, opts Options) (*Engine, error) {
	if g == nil || g.NumSegments() == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrBadRequest)
	}
	switch opts.Algorithm {
	case RGE:
	case RPLE:
		if opts.Pre == nil {
			return nil, fmt.Errorf("%w: RPLE requires a preassignment", ErrBadRequest)
		}
		if opts.Pre.NumSegments() != g.NumSegments() {
			return nil, fmt.Errorf("%w: preassignment covers %d segments, graph has %d",
				ErrBadRequest, opts.Pre.NumSegments(), g.NumSegments())
		}
	default:
		return nil, fmt.Errorf("%w: unknown algorithm %d", ErrBadRequest, int(opts.Algorithm))
	}
	if opts.MaxRetries < 0 || opts.MaxSteps < 0 {
		return nil, fmt.Errorf("%w: negative MaxRetries (%d) or MaxSteps (%d)",
			ErrBadRequest, opts.MaxRetries, opts.MaxSteps)
	}
	return &Engine{g: g, density: density, opts: opts.withDefaults(), tb: newTables(g)}, nil
}

// Graph returns the engine's road network.
func (e *Engine) Graph() *roadnet.Graph { return e.g }

// Stats returns the engine's cumulative counts.
func (e *Engine) Stats() Stats { return e.stats.snapshot() }

// acquire takes an arena from the pool, emptied for a call that reads
// density (nil for reversal).
func (e *Engine) acquire(density DensityFunc) *arena {
	a, _ := e.arenas.Get().(*arena)
	if a == nil {
		a = newArena(e.tb)
	}
	a.st.reset(density)
	return a
}

// release folds the call's counts into the engine's and returns the arena.
func (e *Engine) release(a *arena) {
	a.stats.TagPRFs, a.key.prfs = a.key.prfs, 0
	e.stats.fold(&a.stats)
	e.arenas.Put(a)
}

// Anonymize transforms the user's segment into a multi-level cloaked
// region. For each level it expands under the level key, then verifies
// that a key holder's reversal recovers exactly the state the level grew
// from — against the chain it just built, not by searching for it; a level
// whose tagless reversal is ambiguous or over budget is published with
// tags, and one that reverses neither way is re-expanded under the next
// salt ("links rebuilt ... to avoid collisions"). The salt is public.
//
// One arena carries the whole request: each level expands from the state
// the previous one left, a rejected salt rolls its own additions back, and
// verification walks that same state backward and forward again rather
// than rebuilding it from the member list.
func (e *Engine) Anonymize(req Request) (*CloakedRegion, *Trace, error) {
	if err := e.validateRequest(req); err != nil {
		return nil, nil, err
	}
	a := e.acquire(e.density)
	defer e.release(a)
	st := a.st
	st.add(req.UserSegment)

	head := req.UserSegment
	n := len(req.Profile.Levels)
	tr := &Trace{
		LevelSeqs:    make([][]roadnet.SegmentID, 0, n),
		StartHeads:   make([]roadnet.SegmentID, 0, n),
		Salts:        make([]uint32, 0, n),
		UsersCovered: make([]int, 0, n),
	}
	metas := make([]LevelMeta, 0, n)

	for li, lv := range req.Profile.Levels {
		level := li + 1
		a.key.begin(req.Keys[li], level)
		st.sigma = lv.SigmaS
		accepted := false
		for salt := uint32(0); int(salt) < e.opts.MaxRetries; salt++ {
			stp := a.stepper(e.opts.Algorithm, e.opts.Pre, salt)
			if !e.expandLevel(a, stp, head, lv) {
				a.stats.SaltRetries++
				continue
			}
			meta := LevelMeta{Steps: len(a.seq), Salt: salt, SigmaS: lv.SigmaS}
			budget := searchBudget(st.size(), meta.Steps)
			if !a.levelReverses(stp, head, meta, budget) {
				// Tagless reversal is ambiguous or over budget for this
				// region shape: publish keyed disambiguation tags instead
				// ("links ... rebuilt on the fly to avoid collisions").
				meta.Tags = a.key.makeTags(a.seq)
				if !a.levelReverses(stp, head, meta, budget) {
					// Freak tag collision: another salt fixes it.
					a.rollback()
					a.stats.SaltRetries++
					continue
				}
			}
			seq := make([]roadnet.SegmentID, len(a.seq)) // non-nil even when empty
			copy(seq, a.seq)
			tr.StartHeads = append(tr.StartHeads, head)
			if len(seq) > 0 {
				head = seq[len(seq)-1]
			}
			tr.LevelSeqs = append(tr.LevelSeqs, seq)
			tr.Salts = append(tr.Salts, salt)
			tr.UsersCovered = append(tr.UsersCovered, st.users)
			metas = append(metas, meta)
			if meta.Tags != nil {
				a.stats.TaggedLevels++
			} else {
				a.stats.TaglessLevels++
			}
			accepted = true
			break
		}
		if !accepted {
			a.stats.Refusals++
			return nil, nil, fmt.Errorf("%w: level %d (k=%d, l=%d, sigma=%.0f) not satisfiable within %d retries",
				ErrCloakFailed, level, lv.K, lv.L, lv.SigmaS, e.opts.MaxRetries)
		}
	}

	return &CloakedRegion{
		Algorithm: e.opts.Algorithm,
		Segments:  st.membersByID(),
		Levels:    metas,
	}, tr, nil
}

// validateRequest rejects malformed requests.
func (e *Engine) validateRequest(req Request) error {
	if e.density == nil {
		return fmt.Errorf("%w: engine has no density source", ErrBadRequest)
	}
	if !e.g.HasSegment(req.UserSegment) {
		return fmt.Errorf("%w: unknown user segment %d", ErrBadRequest, req.UserSegment)
	}
	if err := req.Profile.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if len(req.Keys) != len(req.Profile.Levels) {
		return fmt.Errorf("%w: %d keys for %d levels", ErrBadRequest,
			len(req.Keys), len(req.Profile.Levels))
	}
	for i, k := range req.Keys {
		if len(k) == 0 {
			return fmt.Errorf("%w: empty key for level %d", ErrBadRequest, i+1)
		}
	}
	return nil
}

// expandLevel grows the arena's region (head `head`) until the level
// requirement is met, logging the insertion sequence in a.seq. false
// reports a stuck expansion (no eligible candidate, or step budget
// exhausted), with the additions rolled back.
func (e *Engine) expandLevel(a *arena, stp stepper, head roadnet.SegmentID, lv profile.Level) bool {
	st := a.st
	a.seq = a.seq[:0]
	for t := 0; !(st.users >= lv.K && st.size() >= lv.L); t++ {
		next, ok := roadnet.InvalidSegment, false
		if t < e.opts.MaxSteps { // else: step budget exhausted
			next, ok = stp.forward(st, head, uint64(t))
		}
		if !ok {
			a.rollback()
			return false
		}
		st.add(next)
		a.seq = append(a.seq, next)
		head = next
	}
	return true
}

// rollback removes the level logged in a.seq from the region, last-added
// first.
func (a *arena) rollback() {
	for i := len(a.seq) - 1; i >= 0; i-- {
		a.st.remove(a.seq[i])
	}
}

// levelReverses is the collision-avoidance step: it reports whether a key
// holder's reversal of the level logged in a.seq (grown from head `head`)
// recovers exactly that level — verifyChain's verdict for a tagless level,
// the strict tag walk (every member tried at every step) compared with
// a.seq for a tagged one. The region is the same on return, whatever the
// verdict.
func (a *arena) levelReverses(stp stepper, head roadnet.SegmentID, meta LevelMeta, budget int) bool {
	if meta.Steps == 0 {
		return true
	}
	// The de-anonymizer has no density; verify without it, as it will run
	// (and without re-sampling density on every restore).
	st := a.st
	density := st.density
	st.density = nil
	ok := false
	switch {
	case meta.Tags == nil:
		ok = a.verifyChain(stp, head, budget)
	case a.unwindTagged(stp, meta, true) == nil:
		// The walk left the region unwound; put the level back. Members,
		// frontier and bounds are functions of the member set alone, so
		// this is the state expansion left.
		removed := a.search.chain
		ok = true
		for i := len(removed) - 1; i >= 0; i-- {
			st.add(removed[i])
			ok = ok && removed[i] == a.seq[len(a.seq)-1-i]
		}
	}
	st.density = density
	return ok
}

// Deanonymize reduces a cloaked region from its current privacy level down
// to toLevel using the supplied per-level keys (keyed by level index). The
// engine must be configured with the same algorithm (and, for RPLE, the
// same preassignment) as the anonymizer. toLevel = 0 recovers the user's
// own segment.
//
// The region is loaded into an arena once and walked backward level by
// level; a region that is not connected cannot have been produced by
// Anonymize and is refused before any level is tried.
func (e *Engine) Deanonymize(
	cr *CloakedRegion,
	levelKeys map[int][]byte,
	toLevel int,
) (*CloakedRegion, error) {
	if cr == nil {
		return nil, fmt.Errorf("%w: nil region", ErrBadRegion)
	}
	if err := cr.validate(e.g); err != nil {
		return nil, err
	}
	if cr.Algorithm != e.opts.Algorithm {
		return nil, fmt.Errorf("%w: region uses %v, engine configured for %v",
			ErrBadRequest, cr.Algorithm, e.opts.Algorithm)
	}
	cur := cr.PrivacyLevel()
	if toLevel < 0 || toLevel > cur {
		return nil, fmt.Errorf("%w: cannot reduce level-%d region to level %d",
			ErrBadRequest, cur, toLevel)
	}
	out := cr.Clone()
	if toLevel == cur {
		return out, nil
	}

	a := e.acquire(nil)
	defer e.release(a)
	st := a.st
	for _, id := range cr.Segments {
		st.add(id)
	}
	if !st.connected() {
		return nil, fmt.Errorf("%w: region is not connected", ErrIrreversible)
	}
	hint := roadnet.InvalidSegment
	for lv := cur; lv > toLevel; lv-- {
		meta := out.Levels[lv-1]
		key, ok := levelKeys[lv]
		if !ok || len(key) == 0 {
			return nil, fmt.Errorf("%w: level %d", ErrMissingKey, lv)
		}
		a.key.begin(key, lv)
		startHead, err := a.reverseLevel(a.stepper(cr.Algorithm, e.opts.Pre, meta.Salt), meta, lv, hint)
		if err != nil {
			return nil, fmt.Errorf("%w: level %d: %v", ErrIrreversible, lv, err)
		}
		if meta.Steps > 0 {
			hint = startHead // InvalidSegment after tag-mode levels
		}
		out.Levels = out.Levels[:lv-1]
	}
	out.Segments = st.membersByID()
	return out, nil
}
