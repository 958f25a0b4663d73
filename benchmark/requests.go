package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/reversecloak/reversecloak/internal/anonymizer"
	"github.com/reversecloak/reversecloak/internal/cloak"
	"github.com/reversecloak/reversecloak/internal/profile"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// region is one registration the generator knows about: a member of a
// reduce pool, or a live registration of the mixed workload.
type region struct {
	id        string
	user      roadnet.SegmentID
	published *cloak.CloakedRegion
	// reduced[level] is the first answer a reduce to that level returned.
	// Every later answer must equal it, whether it came from the cache or
	// from a fresh peel. Guarded by the owning source's mutex.
	reduced []*cloak.CloakedRegion
	// lastTouch is when the registration's lease last started.
	lastTouch time.Time
}

// request is one generated operation, with what its answer must satisfy.
type request struct {
	kind  opKind
	user  roadnet.SegmentID // anonymize: who asks
	level int               // reduce target level
	// target is the region the operation addresses (nil for anonymize).
	target *region
}

// result is what the server answered.
type result struct {
	err    error // transport failure, refusal, or a wrong answer
	id     string
	region *cloak.CloakedRegion
}

// algorithm is what every generated anonymize asks for. RPLE refuses
// 0.03-0.4% of requests on the small map ("not satisfiable within 32
// retries", depending on the key), and a workload's requests must not
// fail; it is measured per layer instead.
const algorithm = "RGE"

// errWrong marks an answer that arrived but failed a correctness check.
var errWrong = errors.New("wrong answer")

// execute performs one request on c and checks the answer.
func execute(c *anonymizer.Client, prof profile.Profile, req *request) result {
	switch req.kind {
	case opAnonymize:
		id, reg, err := c.AnonymizeTTL(req.user, prof, algorithm, 0)
		if err != nil {
			return result{err: err}
		}
		return result{id: id, region: reg, err: checkAnonymized(reg, req.user, len(prof.Levels))}
	case opSetTrust:
		return result{err: c.SetTrust(req.target.id, requester, 0)}
	case opReduce:
		reg, level, err := c.Reduce(req.target.id, requester, req.level)
		if err != nil {
			return result{err: err}
		}
		if level != req.level {
			return result{err: fmt.Errorf("%w: reduce of %s reached level %d, asked for %d",
				errWrong, req.target.id, level, req.level)}
		}
		return result{region: reg, err: checkReduced(reg, req.target, req.level)}
	case opTouch:
		_, err := c.Touch(req.target.id, 0)
		return result{err: err}
	case opDeregister:
		return result{err: c.Deregister(req.target.id)}
	case opGetRegion:
		reg, _, err := c.GetRegion(req.target.id)
		if err != nil {
			return result{err: err}
		}
		if !sameSegments(reg, req.target.published) {
			return result{err: fmt.Errorf("%w: get_region of %s differs from the published region",
				errWrong, req.target.id)}
		}
		return result{region: reg}
	case opRequestKeys:
		ks, err := c.RequestKeys(req.target.id, requester)
		if err != nil {
			return result{err: err}
		}
		if want := req.target.published.PrivacyLevel(); len(ks) != want {
			return result{err: fmt.Errorf("%w: request_keys of %s returned %d keys, want %d",
				errWrong, req.target.id, len(ks), want)}
		}
		return result{}
	}
	return result{err: fmt.Errorf("unknown op kind %d", req.kind)}
}

// checkAnonymized: the published region has the requested level count and
// covers the user.
func checkAnonymized(reg *cloak.CloakedRegion, user roadnet.SegmentID, levels int) error {
	if reg.PrivacyLevel() != levels {
		return fmt.Errorf("%w: anonymize returned %d levels, want %d", errWrong, reg.PrivacyLevel(), levels)
	}
	if !reg.Contains(user) {
		return fmt.Errorf("%w: published region does not contain the user's segment %d", errWrong, user)
	}
	return nil
}

// checkReduced: level 0 is exactly the user's segment; a coarser level
// contains it and lies inside the published region.
func checkReduced(reg *cloak.CloakedRegion, target *region, level int) error {
	if reg.PrivacyLevel() != level {
		return fmt.Errorf("%w: reduce of %s carries %d levels, want %d",
			errWrong, target.id, reg.PrivacyLevel(), level)
	}
	if level == 0 {
		if len(reg.Segments) != 1 || reg.Segments[0] != target.user {
			return fmt.Errorf("%w: level-0 reduce of %s is %v, want segment %d",
				errWrong, target.id, reg.Segments, target.user)
		}
		return nil
	}
	if !reg.Contains(target.user) {
		return fmt.Errorf("%w: level-%d reduce of %s lost the user's segment %d",
			errWrong, level, target.id, target.user)
	}
	for _, s := range reg.Segments {
		if !target.published.Contains(s) {
			return fmt.Errorf("%w: level-%d reduce of %s has segment %d outside the published region",
				errWrong, level, target.id, s)
		}
	}
	return nil
}

func sameSegments(a, b *cloak.CloakedRegion) bool {
	if len(a.Segments) != len(b.Segments) {
		return false
	}
	for i := range a.Segments {
		if a.Segments[i] != b.Segments[i] {
			return false
		}
	}
	return true
}

// source generates a workload's requests. next is called by one
// goroutine at a time; complete may be called concurrently.
type source interface {
	// prepare runs the part of set-up that needs the server: pool
	// registration and anything else that is not a warm-up request.
	// record, when not nil, is told every request made.
	prepare(c *anonymizer.Client, record func(*request, result)) error
	// beginPhase switches the source to a phase's own random streams.
	beginPhase(p phase)
	// next returns the next request, or nil when the source has nothing
	// eligible (the slot is skipped).
	next(now time.Time) *request
	// complete records a finished request. It may fail the result (an
	// answer that contradicts an earlier one) and may return a dependent
	// request to issue at once on the same connection.
	complete(req *request, res *result, now time.Time) *request
}

type phase int

const (
	phaseWarmup phase = iota
	phaseSerial
	phaseOpen
)

func newSource(w *workload, wd *world, seed int64) source {
	switch w.kind {
	case kindRegister:
		return &registerSource{users: wd.sampler.drawN(newRand(populationSeed, streamUsers), w.warmup+w.serialN()+w.openN)}
	case kindReduce:
		return &reduceSource{
			w: w, seed: seed,
			users: wd.sampler.drawN(newRand(populationSeed, streamUsers), w.pool),
		}
	default:
		return &mixedSource{w: w, seed: seed, sampler: wd.sampler}
	}
}

// registerSource anonymizes the canonical user list in order: warm-up
// takes the first users, the serial phase the next, the open phase the
// rest. The server allocates region IDs sequentially and derives keys
// from them, so a given position in the list always costs the same.
type registerSource struct {
	users []roadnet.SegmentID
	at    int
}

func (s *registerSource) prepare(*anonymizer.Client, func(*request, result)) error { return nil }
func (s *registerSource) beginPhase(phase)                                         {}

func (s *registerSource) next(time.Time) *request {
	if s.at >= len(s.users) {
		return nil
	}
	req := &request{kind: opAnonymize, user: s.users[s.at]}
	s.at++
	return req
}

func (s *registerSource) complete(*request, *result, time.Time) *request { return nil }

// reduceSource reduces a pool of regions registered during set-up. The
// pool's users are canonical; which region each request hits, in what
// order and to which level comes from --seed.
//
// Every phase asks one fixed list over and over: each lap of the serial
// phase then issues the same requests in the same order, which is what
// lets a request be judged by the best quartile of its own repetitions.
// Uniform draws (skew <= 1) are dealt, not rolled: the list visits every
// region once, in a shuffled order, two regions in three to level 0 and
// the third to level 1. Every seed then asks for the same multiset of
// reductions — whose costs differ a hundredfold between regions — and an
// LRU cache smaller than the list never holds what comes next, whatever
// the order. Skewed draws are a list of lapSlots zipf draws.
type reduceSource struct {
	w     *workload
	seed  int64
	users []roadnet.SegmentID

	pool  []*region
	order []int // rank -> pool index, a per-seed permutation
	list  []request
	at    int

	mu sync.Mutex // guards region.reduced
}

func (s *reduceSource) prepare(c *anonymizer.Client, record func(*request, result)) error {
	do := func(req *request) (result, error) {
		res := execute(c, s.w.profile, req)
		if res.err == nil && req.kind == opReduce {
			res.err = checkRepeat(req, &res)
		}
		if record != nil {
			record(req, res)
		}
		if res.err != nil {
			return res, fmt.Errorf("preparing the pool: %s: %w", req.kind, res.err)
		}
		return res, nil
	}
	levels := len(s.w.profile.Levels)
	for _, user := range s.users {
		res, err := do(&request{kind: opAnonymize, user: user})
		if err != nil {
			return err
		}
		reg := &region{
			id: res.id, user: user, published: res.region,
			reduced: make([]*cloak.CloakedRegion, levels),
		}
		if _, err := do(&request{kind: opSetTrust, target: reg}); err != nil {
			return err
		}
		s.pool = append(s.pool, reg)
	}
	// Reduce every (region, level) once: the cache has then seen the
	// whole pool, and the digest covers every answer whatever the draws.
	for _, reg := range s.pool {
		for level := 0; level <= 1; level++ {
			if _, err := do(&request{kind: opReduce, level: level, target: reg}); err != nil {
				return err
			}
		}
	}
	s.order = newRand(s.seed, streamTargets).Perm(len(s.pool))
	return nil
}

func (s *reduceSource) beginPhase(p phase) {
	targets := newRand(s.seed, streamTargets+16*int(p+1))
	s.list, s.at = nil, 0
	if s.w.skew <= 1 {
		for _, i := range targets.Perm(len(s.pool)) {
			level := 0
			if i%3 == 2 {
				level = 1
			}
			s.list = append(s.list, request{kind: opReduce, level: level, target: s.pool[i]})
		}
		return
	}
	ranks := newRankSampler(targets, s.w.skew, len(s.pool))
	levels := newRand(s.seed, streamMix+16*int(p+1))
	for len(s.list) < s.w.lapSlots {
		level := 0
		if levels.Intn(3) == 2 {
			level = 1 // a third of the requests stop one level short
		}
		s.list = append(s.list, request{kind: opReduce, level: level, target: s.pool[s.order[ranks.draw()]]})
	}
}

func (s *reduceSource) next(time.Time) *request {
	req := s.list[s.at%len(s.list)]
	s.at++
	return &req
}

func (s *reduceSource) complete(req *request, res *result, _ time.Time) *request {
	if res.err == nil {
		s.mu.Lock()
		res.err = checkRepeat(req, res)
		s.mu.Unlock()
	}
	return nil
}

// checkRepeat holds a reduce answer against the first answer for the same
// (region, level): hits, misses and incremental peels must all agree.
func checkRepeat(req *request, res *result) error {
	first := req.target.reduced[req.level]
	if first == nil {
		req.target.reduced[req.level] = res.region
		return nil
	}
	if !sameSegments(first, res.region) {
		return fmt.Errorf("%w: reduce of %s to level %d changed between requests",
			errWrong, req.target.id, req.level)
	}
	return nil
}

// digest folds every recorded reduction of the pool into one number, so
// two workloads over the same pool can be held against each other.
func (s *reduceSource) digest() (sum uint64, answers int) {
	const prime = 1099511628211
	sum = 14695981039346656037
	for _, reg := range s.pool {
		for level, red := range reg.reduced {
			if red == nil {
				continue
			}
			answers++
			sum = (sum ^ uint64(level+1)) * prime
			for _, seg := range red.Segments {
				sum = (sum ^ uint64(seg)) * prime
			}
		}
	}
	return sum, answers
}

// mixedSource is the stateful read/write mix: it registers, trusts,
// reduces, renews and deregisters its own regions, tracking which are
// alive so that every generated request should succeed.
type mixedSource struct {
	w       *workload
	seed    int64
	sampler *densitySampler

	mix, users, targets *rand.Rand
	zipf                *rankSampler

	mu sync.Mutex
	// live holds the targetable regions, oldest lease first.
	live []*region
}

func (s *mixedSource) prepare(*anonymizer.Client, func(*request, result)) error { return nil }

func (s *mixedSource) beginPhase(p phase) {
	off := 16 * int(p+1)
	s.mix = newRand(s.seed, streamMix+off)
	s.users = newRand(s.seed, streamUsers+off)
	s.targets = newRand(s.seed, streamTargets+off)
	s.zipf = newRankSampler(s.targets, 1.1, mixedWindow)
}

// prune forgets regions whose lease is too old to target safely.
func (s *mixedSource) prune(now time.Time) {
	cut := 0
	for cut < len(s.live) && now.Sub(s.live[cut].lastTouch) > mixedRecency {
		cut++
	}
	s.live = s.live[cut:]
}

// recent picks among the mixedWindow most recently leased regions; rank 0
// is the newest.
func (s *mixedSource) recent(rank int) *region {
	n := len(s.live)
	if n == 0 {
		return nil
	}
	window := mixedWindow
	if window > n {
		window = n
	}
	return s.live[n-1-rank%window]
}

func (s *mixedSource) next(now time.Time) *request {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.prune(now)
	kind := drawOp(s.mix, mixedMix)
	if kind == opDeregister && len(s.live) <= mixedWindow+mixedMargin {
		kind = opGetRegion // too few tracked regions to retire one safely
	}
	if kind != opAnonymize && len(s.live) == 0 {
		kind = opAnonymize
	}
	switch kind {
	case opAnonymize:
		return &request{kind: opAnonymize, user: s.sampler.draw(s.users)}
	case opDeregister:
		target := s.live[0]
		s.live = s.live[1:]
		return &request{kind: opDeregister, target: target}
	case opReduce:
		target := s.recent(s.zipf.draw())
		return &request{kind: opReduce, level: s.targets.Intn(3), target: target}
	default:
		target := s.recent(s.targets.Intn(mixedWindow))
		return &request{kind: kind, target: target}
	}
}

func (s *mixedSource) complete(req *request, res *result, now time.Time) *request {
	if res.err != nil {
		return nil
	}
	switch req.kind {
	case opAnonymize:
		reg := &region{
			id: res.id, user: req.user, published: res.region,
			reduced: make([]*cloak.CloakedRegion, res.region.PrivacyLevel()), lastTouch: now,
		}
		// The owner entitles the reader right away; the region becomes a
		// target once that is acknowledged.
		return &request{kind: opSetTrust, target: reg}
	case opSetTrust:
		s.mu.Lock()
		s.live = append(s.live, req.target)
		s.mu.Unlock()
	case opTouch:
		s.mu.Lock()
		for i, reg := range s.live {
			if reg == req.target {
				copy(s.live[i:], s.live[i+1:])
				s.live[len(s.live)-1] = reg
				reg.lastTouch = now
				break
			}
		}
		s.mu.Unlock()
	case opReduce:
		s.mu.Lock()
		res.err = checkRepeat(req, res)
		s.mu.Unlock()
	}
	return nil
}

// survivors returns the tracked regions whose lease is young enough that
// they must still be alive after a crash and restart.
func (s *mixedSource) survivors(now time.Time) []*region {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*region
	for _, reg := range s.live {
		if now.Sub(reg.lastTouch) < mixedVerifyAge {
			out = append(out, reg)
		}
	}
	return out
}
