package profile

import (
	"errors"
	"testing"
)

func TestValidateAccepts(t *testing.T) {
	tests := []struct {
		name string
		p    Profile
	}{
		{"default", Default()},
		{"single", Profile{Levels: []Level{{K: 5, L: 2, SigmaS: 1000}}}},
		{"unbounded", Profile{Levels: []Level{{K: 5, L: 2}, {K: 10, L: 4}}}},
		{"equal-levels", Profile{Levels: []Level{{K: 5, L: 2, SigmaS: 100}, {K: 5, L: 2, SigmaS: 100}}}},
		{"bounded-then-unbounded", Profile{Levels: []Level{{K: 5, L: 2, SigmaS: 100}, {K: 9, L: 3}}}},
		{"uniform", Profile{Levels: []Level{
			{K: 5, L: 2, SigmaS: 800}, {K: 10, L: 4, SigmaS: 1600},
			{K: 20, L: 6, SigmaS: 2400}, {K: 40, L: 8, SigmaS: 3200},
		}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
		})
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		p    Profile
	}{
		{"empty", Profile{}},
		{"zero-k", Profile{Levels: []Level{{K: 0, L: 1}}}},
		{"zero-l", Profile{Levels: []Level{{K: 1, L: 0}}}},
		{"negative-sigma", Profile{Levels: []Level{{K: 1, L: 1, SigmaS: -5}}}},
		{"decreasing-k", Profile{Levels: []Level{{K: 10, L: 1}, {K: 5, L: 1}}}},
		{"decreasing-l", Profile{Levels: []Level{{K: 10, L: 5}, {K: 20, L: 4}}}},
		{"decreasing-sigma", Profile{Levels: []Level{{K: 5, L: 1, SigmaS: 500}, {K: 9, L: 1, SigmaS: 100}}}},
		{"bounded-under-unbounded", Profile{Levels: []Level{{K: 5, L: 1}, {K: 9, L: 1, SigmaS: 400}}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.p.Validate(); !errors.Is(err, ErrInvalid) {
				t.Errorf("Validate() = %v, want ErrInvalid", err)
			}
		})
	}
}
