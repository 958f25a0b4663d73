package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	rc "github.com/reversecloak/reversecloak"
	"github.com/reversecloak/reversecloak/internal/leakcheck"
)

// TestMain fails the package when a goroutine outlives its tests.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// cloakToFiles runs the one-shot mode on the small map for user 100 and
// returns the region and keys files it wrote.
func cloakToFiles(t *testing.T, algorithm, keysIn string) (regionPath, keysPath string) {
	t.Helper()
	dir := t.TempDir()
	regionPath, keysPath = filepath.Join(dir, "region.json"), filepath.Join(dir, "keys.json")
	err := run(args{
		preset: "small", seedStr: serveSeed, cars: 2000, userSeg: 100,
		algorithm: algorithm, levels: 3, autoKeys: true, keysIn: keysIn,
		regionOut: regionPath, keysOut: keysPath,
	})
	if err != nil {
		t.Fatalf("one-shot %s: %v", algorithm, err)
	}
	return regionPath, keysPath
}

func readRegion(t *testing.T, path string) *rc.CloakedRegion {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rf regionFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		t.Fatal(err)
	}
	return rf.Region
}

// TestCloakThenDeanonymize: what the one-shot mode writes, deanonymize
// peels level by level, down to the user's own segment at level 0.
func TestCloakThenDeanonymize(t *testing.T) {
	for _, algorithm := range []string{"RGE", "RPLE"} {
		t.Run(algorithm, func(t *testing.T) {
			regionPath, keysPath := cloakToFiles(t, algorithm, "")
			published := readRegion(t, regionPath)
			// size[lv] is the region's size at level lv: the user's segment
			// plus every level's additions up to lv.
			size := []int{1}
			for _, lm := range published.Levels {
				size = append(size, size[len(size)-1]+lm.Steps)
			}
			if top := len(size) - 1; size[top] != len(published.Segments) || top != published.PrivacyLevel() {
				t.Fatalf("published %d segments at L%d, levels add up to %v",
					len(published.Segments), published.PrivacyLevel(), size)
			}

			for lv := 0; lv < published.PrivacyLevel(); lv++ {
				got, err := deanonymize(regionPath, keysPath, lv, false, 0, 0)
				if err != nil {
					t.Fatalf("level %d: %v", lv, err)
				}
				if len(got.Segments) != size[lv] {
					t.Errorf("level %d: %d segments, want %d", lv, len(got.Segments), size[lv])
				}
				if lv == 0 && !reflect.DeepEqual(got.Segments, []rc.SegmentID{100}) {
					t.Errorf("level 0 = %v, want the user's segment 100", got.Segments)
				}
			}

			// Without keys the public region is shown as published.
			got, err := deanonymize(regionPath, "", 0, true, 40, 12)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Segments, published.Segments) {
				t.Errorf("keyless view = %v, want the published %v", got.Segments, published.Segments)
			}

			// -keys reuses the written keys: the same region again.
			again, _ := cloakToFiles(t, algorithm, keysPath)
			if r := readRegion(t, again); !reflect.DeepEqual(r, published) {
				t.Errorf("cloaking with -keys published %+v, want %+v", r, published)
			}
		})
	}
}

// TestDeanonymizeDefaultsToSmallMap: a region file written before the map
// preset was recorded is read on the small map.
func TestDeanonymizeDefaultsToSmallMap(t *testing.T) {
	regionPath, keysPath := cloakToFiles(t, "RGE", "")
	raw, err := os.ReadFile(regionPath)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "map_preset")
	if raw, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(t.TempDir(), "old-region.json")
	if err := os.WriteFile(old, raw, 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := deanonymize(old, keysPath, 0, false, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Segments, []rc.SegmentID{100}) {
		t.Errorf("level 0 = %v, want the user's segment 100", got.Segments)
	}
}

func TestDeanonymizeRejectsBadKeys(t *testing.T) {
	regionPath, _ := cloakToFiles(t, "RGE", "")
	dir := t.TempDir()
	for name, tc := range map[string]struct{ content, want string }{
		"not-json": {"keys", "parsing keys"},
		"bad-hex":  {`{"keys_hex": ["zz"]}`, "decoding keys"},
		"no-keys":  {`{"keys_hex": []}`, "decoding keys"},
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(tc.content), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := deanonymize(regionPath, path, 0, false, 0, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", name, err, tc.want)
		}
	}
	if _, err := deanonymize(regionPath, filepath.Join(dir, "missing.json"), 0, false, 0, 0); err == nil ||
		!strings.Contains(err.Error(), "reading keys") {
		t.Errorf("missing keys file: err = %v, want a read error", err)
	}
	if _, err := deanonymize("", "", 0, false, 0, 0); err == nil {
		t.Error("no -region: want an error")
	}
}
