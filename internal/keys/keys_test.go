package keys

import (
	"bytes"
	"errors"
	"testing"
)

func TestAutoGenerate(t *testing.T) {
	ks, err := AutoGenerate(3)
	if err != nil {
		t.Fatalf("AutoGenerate: %v", err)
	}
	if ks.Levels() != 3 {
		t.Fatalf("Levels = %d, want 3", ks.Levels())
	}
	k1, err := ks.Level(1)
	if err != nil {
		t.Fatalf("Level(1): %v", err)
	}
	k2, err := ks.Level(2)
	if err != nil {
		t.Fatalf("Level(2): %v", err)
	}
	if bytes.Equal(k1, k2) {
		t.Error("levels must get independent keys")
	}
}

func TestAutoGenerateRejectsZeroLevels(t *testing.T) {
	if _, err := AutoGenerate(0); !errors.Is(err, ErrLevelRange) {
		t.Errorf("err = %v, want ErrLevelRange", err)
	}
}

func TestLevelBounds(t *testing.T) {
	ks, err := AutoGenerate(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ks.Level(0); !errors.Is(err, ErrLevelRange) {
		t.Errorf("Level(0) err = %v", err)
	}
	if _, err := ks.Level(3); !errors.Is(err, ErrLevelRange) {
		t.Errorf("Level(3) err = %v", err)
	}
}

func TestLevelReturnsCopy(t *testing.T) {
	ks, err := AutoGenerate(1)
	if err != nil {
		t.Fatal(err)
	}
	k, err := ks.Level(1)
	if err != nil {
		t.Fatal(err)
	}
	k[0] ^= 0xff
	k2, err := ks.Level(1)
	if err != nil {
		t.Fatal(err)
	}
	if k[0] == k2[0] {
		t.Error("mutating a returned key must not affect the set")
	}
}

func TestFromBytes(t *testing.T) {
	raw := [][]byte{{1, 2, 3}, {4, 5, 6}}
	ks, err := FromBytes(raw)
	if err != nil {
		t.Fatalf("FromBytes: %v", err)
	}
	raw[0][0] = 99 // must not leak into the set
	k1, err := ks.Level(1)
	if err != nil {
		t.Fatal(err)
	}
	if k1[0] != 1 {
		t.Error("FromBytes must copy key material")
	}
	if _, err := FromBytes(nil); !errors.Is(err, ErrLevelRange) {
		t.Errorf("empty FromBytes err = %v", err)
	}
	if _, err := FromBytes([][]byte{{}}); !errors.Is(err, ErrBadKey) {
		t.Errorf("empty key err = %v", err)
	}
}

func TestGrant(t *testing.T) {
	ks, err := FromBytes([][]byte{{1}, {2}, {3}})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		toLevel int
		want    []int // granted level indices
	}{
		{3, nil},
		{2, []int{3}},
		{1, []int{2, 3}},
		{0, []int{1, 2, 3}},
	}
	for _, tt := range tests {
		got, err := ks.Grant(tt.toLevel)
		if err != nil {
			t.Fatalf("Grant(%d): %v", tt.toLevel, err)
		}
		if len(got) != len(tt.want) {
			t.Fatalf("Grant(%d) gave %d keys, want %d", tt.toLevel, len(got), len(tt.want))
		}
		for _, lv := range tt.want {
			if _, ok := got[lv]; !ok {
				t.Errorf("Grant(%d) missing key for level %d", tt.toLevel, lv)
			}
		}
	}
	if _, err := ks.Grant(-1); !errors.Is(err, ErrLevelRange) {
		t.Errorf("Grant(-1) err = %v", err)
	}
	if _, err := ks.Grant(4); !errors.Is(err, ErrLevelRange) {
		t.Errorf("Grant(4) err = %v", err)
	}
}

func TestHexRoundTrip(t *testing.T) {
	ks, err := AutoGenerate(3)
	if err != nil {
		t.Fatal(err)
	}
	encoded := ks.EncodeHex()
	ks2, err := DecodeHex(encoded)
	if err != nil {
		t.Fatalf("DecodeHex: %v", err)
	}
	for lv := 1; lv <= 3; lv++ {
		a, err := ks.Level(lv)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ks2.Level(lv)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("level %d key differs after hex round trip", lv)
		}
	}
}

func TestDecodeHexRejectsGarbage(t *testing.T) {
	if _, err := DecodeHex([]string{"zzzz"}); !errors.Is(err, ErrBadKey) {
		t.Errorf("err = %v, want ErrBadKey", err)
	}
}

func TestAllReturnsCopies(t *testing.T) {
	ks, err := FromBytes([][]byte{{7, 7}})
	if err != nil {
		t.Fatal(err)
	}
	all := ks.All()
	all[0][0] = 1
	k, err := ks.Level(1)
	if err != nil {
		t.Fatal(err)
	}
	if k[0] != 7 {
		t.Error("All must return copies")
	}
}
