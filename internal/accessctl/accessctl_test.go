package accessctl

import (
	"errors"
	"sync"
	"testing"

	"github.com/reversecloak/reversecloak/internal/keys"
)

func TestPolicyGrants(t *testing.T) {
	p, err := NewPolicy(3, 3) // unknown requesters get no keys (level 3 of 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetTrust("doctor", 0); err != nil {
		t.Fatal(err)
	}
	if err := p.SetTrust("dispatcher", 2); err != nil {
		t.Fatal(err)
	}

	ks, err := keys.AutoGenerate(3)
	if err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		requester string
		wantKeys  int
	}{
		{"doctor", 3},     // full peel: keys 1,2,3
		{"dispatcher", 1}, // to level 2: key 3
		{"stranger", 0},   // default: nothing
	}
	for _, tt := range tests {
		got, err := p.KeysFor(tt.requester, ks)
		if err != nil {
			t.Fatalf("KeysFor(%s): %v", tt.requester, err)
		}
		if len(got) != tt.wantKeys {
			t.Errorf("KeysFor(%s) = %d keys, want %d", tt.requester, len(got), tt.wantKeys)
		}
	}
}

func TestPolicyReject(t *testing.T) {
	p, err := NewPolicy(2, Reject)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.LevelFor("nobody"); !errors.Is(err, ErrUnknownRequester) {
		t.Errorf("err = %v, want ErrUnknownRequester", err)
	}
	ks, err := keys.AutoGenerate(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.KeysFor("nobody", ks); !errors.Is(err, ErrUnknownRequester) {
		t.Errorf("KeysFor err = %v", err)
	}
}

func TestPolicyValidation(t *testing.T) {
	if _, err := NewPolicy(0, 0); !errors.Is(err, ErrBadLevel) {
		t.Errorf("0 levels err = %v", err)
	}
	if _, err := NewPolicy(2, 5); !errors.Is(err, ErrBadLevel) {
		t.Errorf("bad default err = %v", err)
	}
	p, err := NewPolicy(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.SetTrust("x", -1); !errors.Is(err, ErrBadLevel) {
		t.Errorf("SetTrust(-1) err = %v", err)
	}
	if err := p.SetTrust("x", 3); !errors.Is(err, ErrBadLevel) {
		t.Errorf("SetTrust(3) err = %v", err)
	}
	ks, err := keys.AutoGenerate(3) // wrong size
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.KeysFor("x", ks); !errors.Is(err, ErrBadLevel) {
		t.Errorf("size mismatch err = %v", err)
	}
}

func TestPolicyRequesters(t *testing.T) {
	p, err := NewPolicy(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"zeta", "alpha", "mid"} {
		if err := p.SetTrust(r, 1); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Requesters()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("requesters = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("requesters = %v, want sorted %v", got, want)
		}
	}
}

func TestPolicyConcurrentAccess(t *testing.T) {
	p, err := NewPolicy(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			name := string(rune('a' + n))
			for j := 0; j < 100; j++ {
				if err := p.SetTrust(name, n%4); err != nil {
					t.Errorf("SetTrust: %v", err)
					return
				}
				if _, err := p.LevelFor(name); err != nil {
					t.Errorf("LevelFor: %v", err)
					return
				}
				p.Requesters()
			}
		}(i)
	}
	wg.Wait()
}
