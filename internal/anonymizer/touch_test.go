package anonymizer

import (
	"errors"
	"testing"
	"time"
)

// The touch (lease renewal) mutation: mobile clients re-reporting their
// location extend the registration they hold instead of re-registering.
// The renewal is a journaled mutation like every other lifecycle change,
// so it must survive recovery — including the hard case where the
// ORIGINAL TTL elapses while the store is down but a touch had already
// extended it.

// TestTouchExtendsLease pins the live semantics in both store modes.
func TestTouchExtendsLease(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			clk := newFakeClock()
			st := openDurable(t, mode.dir, WithGCInterval(0), WithClock(clk.Now))
			reg := fakeRegistration(t, 1)
			reg.SetExpiry(clk.Now().Add(10 * time.Second))
			id, err := st.Register(reg)
			if err != nil {
				t.Fatal(err)
			}
			clk.Advance(5 * time.Second)
			expiry, err := st.Touch(id, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if want := clk.Now().Add(30 * time.Second); !expiry.Equal(want) {
				t.Fatalf("Touch expiry = %v, want %v", expiry, want)
			}
			clk.Advance(10 * time.Second) // past the original TTL
			if _, err := st.Lookup(id); err != nil {
				t.Fatalf("renewed registration expired: %v", err)
			}
			clk.Advance(25 * time.Second) // past the renewed TTL
			if _, err := st.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
				t.Fatalf("lapsed renewal still visible: %v", err)
			}
			// Touching a lapsed registration is refused like any other
			// mutation of an unknown region.
			if _, err := st.Touch(id, time.Hour); !errors.Is(err, ErrUnknownRegion) {
				t.Fatalf("touch of expired registration: %v", err)
			}
			if _, err := st.Touch("r424242", time.Hour); !errors.Is(err, ErrUnknownRegion) {
				t.Fatalf("touch of unknown region: %v", err)
			}
		})
	}
}

// TestTouchClearsBoundWithoutTTL: ttl 0 on a store without a default TTL
// clears the expiry bound.
func TestTouchClearsBoundWithoutTTL(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			clk := newFakeClock()
			st := openDurable(t, mode.dir, WithGCInterval(0), WithClock(clk.Now))
			reg := fakeRegistration(t, 1)
			reg.SetExpiry(clk.Now().Add(10 * time.Second))
			id, err := st.Register(reg)
			if err != nil {
				t.Fatal(err)
			}
			expiry, err := st.Touch(id, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !expiry.IsZero() {
				t.Fatalf("cleared bound reported expiry %v", expiry)
			}
			clk.Advance(time.Hour)
			if _, err := st.Lookup(id); err != nil {
				t.Fatalf("unbounded registration expired: %v", err)
			}
		})
	}
}

// TestTouchDefaultTTL: ttl 0 selects the store's configured default.
func TestTouchDefaultTTL(t *testing.T) {
	for _, mode := range storeModes(t) {
		t.Run(mode.name, func(t *testing.T) {
			clk := newFakeClock()
			st := openDurable(t, mode.dir,
				WithGCInterval(0), WithTTL(20*time.Second), WithClock(clk.Now))
			id, err := st.Register(fakeRegistration(t, 1))
			if err != nil {
				t.Fatal(err)
			}
			clk.Advance(15 * time.Second)
			if _, err := st.Touch(id, 0); err != nil {
				t.Fatal(err)
			}
			clk.Advance(15 * time.Second) // past the original default TTL
			if _, err := st.Lookup(id); err != nil {
				t.Fatalf("renewed registration expired: %v", err)
			}
			clk.Advance(10 * time.Second) // past the renewed default TTL
			if _, err := st.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
				t.Fatalf("lapsed renewal still visible: %v", err)
			}
		})
	}
}

// TestTouchSurvivesRecovery is the crash-safety half: a renewal made
// before a crash keeps the registration alive through a downtime that
// outlives the ORIGINAL TTL — replay must not drop the register record
// just because its own expiry lies in the past, and the trust grants
// applied before the renewal must survive with it.
func TestTouchSurvivesRecovery(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	st := openDurable(t, dir, WithGCInterval(0), WithClock(clk.Now))
	reg := fakeRegistration(t, 2)
	reg.SetExpiry(clk.Now().Add(10 * time.Second))
	id, err := st.Register(reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SetTrust(id, "doctor", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Touch(id, time.Hour); err != nil {
		t.Fatal(err)
	}
	// A second registration whose lease is NOT renewed: it must die in
	// the same downtime the renewed one survives.
	doomed := fakeRegistration(t, 1)
	doomed.SetExpiry(clk.Now().Add(10 * time.Second))
	doomedID, err := st.Register(doomed)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	clk.Advance(30 * time.Second) // past the original TTLs, inside the renewal
	st2 := openDurable(t, dir, WithGCInterval(0), WithClock(clk.Now))
	rec := st2.Recovery()
	if rec.Renewals != 1 {
		t.Errorf("Recovery().Renewals = %d, want 1", rec.Renewals)
	}
	if rec.Expired != 1 {
		t.Errorf("Recovery().Expired = %d, want 1 (the unrenewed registration)", rec.Expired)
	}
	got, err := st2.Lookup(id)
	if err != nil {
		t.Fatalf("renewed registration lost in recovery: %v", err)
	}
	if got.Grants()["doctor"] != 1 {
		t.Errorf("trust grant lost through renewal recovery: %v", got.Grants())
	}
	if _, err := st2.Lookup(doomedID); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("unrenewed registration resurrected: %v", err)
	}

	// And the renewal itself ends: past the renewed TTL the registration
	// is gone on the next reopen too.
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Hour)
	st3 := openDurable(t, dir, WithGCInterval(0), WithClock(clk.Now))
	if _, err := st3.Lookup(id); !errors.Is(err, ErrUnknownRegion) {
		t.Fatalf("lapsed renewal resurrected: %v", err)
	}
}

// TestTouchOverWire pins the wire op end to end: anonymize with a TTL,
// touch it, and observe the extended expiry.
func TestTouchOverWire(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	id, _, err := c.AnonymizeTTL(42, testProfile(), "RGE", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	expiry, err := c.Touch(id, time.Hour)
	if err != nil {
		t.Fatalf("Touch: %v", err)
	}
	if until := time.Until(expiry); until < 50*time.Minute || until > 70*time.Minute {
		t.Fatalf("touched expiry %v is not ~1h out", expiry)
	}
	if _, _, err := c.GetRegion(id); err != nil {
		t.Fatalf("GetRegion after touch: %v", err)
	}
	if _, err := c.Touch("r999999", time.Hour); !errors.Is(err, ErrRemote) {
		t.Fatalf("touch of unknown region over wire: %v", err)
	}
}
