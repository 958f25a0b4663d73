// Package profile defines the user-defined multi-level privacy profiles of
// ReverseCloak.
//
// In the paper's personalized privacy model each anonymization request
// carries, for every privacy level L^i (1 <= i <= N-1), the requirement
// tuple (delta_k^i, sigma_s^i): the k-anonymity level and the maximum
// spatial resolution. Following the full system (CIKM'15, Algorithm 1 of the
// demo paper, which passes "user defined delta_k, delta_l, sigma_t"), each
// level also carries a segment l-diversity requirement delta_l, since a
// cloaking region over a road network must cover enough distinct segments
// as well as enough users.
package profile

import (
	"errors"
	"fmt"
)

// Errors returned by Validate.
var (
	// ErrInvalid reports a malformed privacy profile.
	ErrInvalid = errors.New("profile: invalid")
)

// Level is the privacy requirement for one level L^i.
type Level struct {
	// K is delta_k: the region must be indistinguishable among at least K
	// users (location k-anonymity).
	K int `json:"k"`
	// L is delta_l: the region must contain at least L road segments
	// (segment l-diversity).
	L int `json:"l"`
	// SigmaS is sigma_s: the maximum spatial extent of the cloaking region
	// in meters, measured as the diagonal of its bounding box. Zero means
	// unbounded.
	SigmaS float64 `json:"sigma_s"`
}

// Profile is a user-defined privacy profile: the ordered requirements for
// levels L^1 .. L^(N-1). Level L^0 (the user's own segment) carries no
// requirement and is implicit.
type Profile struct {
	Levels []Level `json:"levels"`
}

// Validate checks structural sanity: at least one level, positive K and L,
// non-negative tolerances, and monotonically non-decreasing requirements
// (a higher level must never demand less privacy than a lower one).
func (p Profile) Validate() error {
	if len(p.Levels) == 0 {
		return fmt.Errorf("%w: profile needs at least one level", ErrInvalid)
	}
	for i, lv := range p.Levels {
		if lv.K < 1 {
			return fmt.Errorf("%w: level %d has k=%d, need k>=1", ErrInvalid, i+1, lv.K)
		}
		if lv.L < 1 {
			return fmt.Errorf("%w: level %d has l=%d, need l>=1", ErrInvalid, i+1, lv.L)
		}
		if lv.SigmaS < 0 {
			return fmt.Errorf("%w: level %d has negative sigma_s", ErrInvalid, i+1)
		}
		if i == 0 {
			continue
		}
		prev := p.Levels[i-1]
		if lv.K < prev.K || lv.L < prev.L {
			return fmt.Errorf("%w: level %d requirements (k=%d,l=%d) below level %d (k=%d,l=%d)",
				ErrInvalid, i+1, lv.K, lv.L, i, prev.K, prev.L)
		}
		if lv.SigmaS != 0 && prev.SigmaS != 0 && lv.SigmaS < prev.SigmaS {
			return fmt.Errorf("%w: level %d tolerance %.0f below level %d tolerance %.0f",
				ErrInvalid, i+1, lv.SigmaS, i, prev.SigmaS)
		}
		if lv.SigmaS == 0 && prev.SigmaS != 0 {
			// Unbounded above a bounded level is fine (weaker constraint).
			continue
		}
		if lv.SigmaS != 0 && prev.SigmaS == 0 {
			return fmt.Errorf("%w: level %d bounded (%.0f) under unbounded level %d",
				ErrInvalid, i+1, lv.SigmaS, i)
		}
	}
	return nil
}

// Default returns the toolkit's "Default setting": three privacy levels with
// doubling anonymity and generous tolerances suitable for a city-scale map.
func Default() Profile {
	return Profile{Levels: []Level{
		{K: 10, L: 3, SigmaS: 2000},
		{K: 20, L: 5, SigmaS: 3500},
		{K: 40, L: 8, SigmaS: 6000},
	}}
}
