package cloak

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"
)

// TestCloakedRegionJSONRoundTrip pins the published wire format: the
// anonymizer and de-anonymizer CLIs exchange regions as JSON files, so the
// region must survive serialization exactly — including tags.
func TestCloakedRegionJSONRoundTrip(t *testing.T) {
	e := newTestEngine(t, RGE, 10, 10, constDensity(2))
	ks := testKeys(3)
	cr, _, err := e.Anonymize(Request{UserSegment: 42, Profile: testProfile(), Keys: ks})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(cr)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back CloakedRegion
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Algorithm != cr.Algorithm || len(back.Segments) != len(cr.Segments) ||
		len(back.Levels) != len(cr.Levels) {
		t.Fatal("round trip lost structure")
	}
	for i := range cr.Segments {
		if back.Segments[i] != cr.Segments[i] {
			t.Fatal("segments differ after round trip")
		}
	}
	// And the deserialized region still de-anonymizes.
	keyMap := map[int][]byte{1: ks[0], 2: ks[1], 3: ks[2]}
	l0, err := e.Deanonymize(&back, keyMap, 0)
	if err != nil {
		t.Fatalf("dean after round trip: %v", err)
	}
	if len(l0.Segments) != 1 || l0.Segments[0] != 42 {
		t.Errorf("L0 = %v", l0.Segments)
	}
}

// TestTaggedRegionJSONRoundTrip does the same for a region with a tagged
// level: the tags survive byte for byte and the region still reduces.
func TestTaggedRegionJSONRoundTrip(t *testing.T) {
	gr, cr, lv := taggedCase(t, RGE)
	raw, err := json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	var back CloakedRegion
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(back.Levels[lv-1].Tags, cr.Levels[lv-1].Tags, bytes.Equal) {
		t.Fatal("tags changed in round trip")
	}
	l0, err := gr.w.engines[RGE].Deanonymize(&back, gr.keysByLevel(), 0)
	if err != nil {
		t.Fatalf("dean after round trip: %v", err)
	}
	if len(l0.Segments) != 1 || l0.Segments[0] != gr.req.UserSegment {
		t.Errorf("L0 = %v, want [%d]", l0.Segments, gr.req.UserSegment)
	}
}
