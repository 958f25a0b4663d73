// Package accessctl implements the personal access-control profile of the
// Anonymizer toolkit: "The 'Anonymizer' maintains a personal access control
// profile, which decides the assignment of access keys based on trust
// degree and privileges of the location data requesters."
//
// A Policy maps requester identities to the privacy level they may reduce a
// region to; KeysFor turns that entitlement into the concrete key grant.
package accessctl

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/reversecloak/reversecloak/internal/keys"
)

// Errors returned by the policy.
var (
	// ErrUnknownRequester reports a requester with no trust assignment when
	// the policy has no default.
	ErrUnknownRequester = errors.New("accessctl: unknown requester")
	// ErrBadLevel reports an out-of-range privilege level.
	ErrBadLevel = errors.New("accessctl: bad level")
)

// Policy is a data owner's personal access-control profile. It is safe for
// concurrent use.
type Policy struct {
	mu sync.RWMutex
	// levels is the number of keyed privacy levels (N-1).
	levels int
	// grants maps requester identity to the lowest privacy level they may
	// reach (0 = full de-anonymization, levels = no keys at all).
	grants map[string]int
	// defaultLevel applies to unknown requesters; -1 means reject them.
	defaultLevel int
}

// NewPolicy creates a policy for a cloak with the given number of keyed
// levels. defaultLevel is the entitlement for unlisted requesters; pass
// Reject to deny them.
func NewPolicy(levels, defaultLevel int) (*Policy, error) {
	if levels < 1 {
		return nil, fmt.Errorf("%w: %d levels", ErrBadLevel, levels)
	}
	if defaultLevel != Reject && (defaultLevel < 0 || defaultLevel > levels) {
		return nil, fmt.Errorf("%w: default %d", ErrBadLevel, defaultLevel)
	}
	return &Policy{
		levels:       levels,
		grants:       make(map[string]int),
		defaultLevel: defaultLevel,
	}, nil
}

// Reject marks unknown requesters as denied.
const Reject = -1

// SetTrust entitles a requester to reduce regions down to toLevel.
func (p *Policy) SetTrust(requester string, toLevel int) error {
	if toLevel < 0 || toLevel > p.levels {
		return fmt.Errorf("%w: level %d of %d", ErrBadLevel, toLevel, p.levels)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.grants[requester] = toLevel
	return nil
}

// LevelFor returns the lowest level the requester may reach.
func (p *Policy) LevelFor(requester string) (int, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if lv, ok := p.grants[requester]; ok {
		return lv, nil
	}
	if p.defaultLevel == Reject {
		return 0, fmt.Errorf("%w: %q", ErrUnknownRequester, requester)
	}
	return p.defaultLevel, nil
}

// KeysFor returns the key grant for a requester: the keys of every level
// above their entitled level, which is exactly what they need to peel down
// to it.
func (p *Policy) KeysFor(requester string, ks *keys.Set) (map[int][]byte, error) {
	if ks.Levels() != p.levels {
		return nil, fmt.Errorf("%w: key set has %d levels, policy %d",
			ErrBadLevel, ks.Levels(), p.levels)
	}
	lv, err := p.LevelFor(requester)
	if err != nil {
		return nil, err
	}
	grant, err := ks.Grant(lv)
	if err != nil {
		return nil, fmt.Errorf("accessctl: granting: %w", err)
	}
	return grant, nil
}

// Levels returns the number of keyed privacy levels the policy covers.
func (p *Policy) Levels() int { return p.levels }

// DefaultLevel returns the entitlement applied to unlisted requesters
// (Reject when they are denied outright).
func (p *Policy) DefaultLevel() int { return p.defaultLevel }

// Grants returns a copy of the explicit per-requester entitlements, the
// counterpart of DefaultLevel needed to serialize a policy.
func (p *Policy) Grants() map[string]int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]int, len(p.grants))
	for r, lv := range p.grants {
		out[r] = lv
	}
	return out
}

// Requesters lists all explicitly configured requesters, sorted.
func (p *Policy) Requesters() []string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]string, 0, len(p.grants))
	for r := range p.grants {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
