package prng

import (
	"math"
	"testing"
	"testing/quick"
)

func testKey(b byte) []byte {
	k := make([]byte, KeySize)
	for i := range k {
		k[i] = b
	}
	return k
}

func TestNewKey(t *testing.T) {
	k1, err := NewKey()
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	k2, err := NewKey()
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	if len(k1) != KeySize || len(k2) != KeySize {
		t.Fatalf("key sizes = %d, %d; want %d", len(k1), len(k2), KeySize)
	}
	same := true
	for i := range k1 {
		if k1[i] != k2[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two generated keys are identical")
	}
}

func TestStreamDeterminism(t *testing.T) {
	s1 := New(testKey(7), "level:1")
	s2 := New(testKey(7), "level:1")
	for i := uint64(0); i < 100; i++ {
		if s1.At(i) != s2.At(i) {
			t.Fatalf("draw %d differs between identical streams", i)
		}
	}
	// Random access must agree with itself regardless of call order.
	if s1.At(50) != s1.At(50) {
		t.Fatal("At is not stable")
	}
}

func TestStreamLabelSeparation(t *testing.T) {
	key := testKey(9)
	a := New(key, "level:1")
	b := New(key, "level:2")
	equal := 0
	for i := uint64(0); i < 64; i++ {
		if a.At(i) == b.At(i) {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("streams with different labels collided on %d of 64 draws", equal)
	}
}

func TestStreamKeySeparation(t *testing.T) {
	a := New(testKey(1), "x")
	b := New(testKey(2), "x")
	for i := uint64(0); i < 64; i++ {
		if a.At(i) == b.At(i) {
			t.Fatalf("streams with different keys agree at draw %d", i)
		}
	}
}

func TestDeriveDeterministic(t *testing.T) {
	key := testKey(3)
	d1 := Derive(key, "salt:0")
	d2 := Derive(key, "salt:0")
	d3 := Derive(key, "salt:1")
	if string(d1) != string(d2) {
		t.Fatal("Derive not deterministic")
	}
	if string(d1) == string(d3) {
		t.Fatal("Derive does not separate labels")
	}
	if len(d1) != KeySize {
		t.Fatalf("derived key size = %d, want %d", len(d1), KeySize)
	}
}

func TestCursorSequence(t *testing.T) {
	s := New(testKey(8), "cursor")
	c := NewCursor(s)
	var seq []uint64
	for i := 0; i < 10; i++ {
		seq = append(seq, c.Uint64())
	}
	for i, v := range seq {
		if s.At(uint64(i)) != v {
			t.Fatalf("cursor draw %d does not match stream.At", i)
		}
	}
	c.Seek(3)
	if c.Uint64() != seq[3] || c.Uint64() != seq[4] {
		t.Fatal("Seek did not reposition")
	}
	c.Seek(9)
	c.Seek(1) // backwards, past draws already made
	if c.Uint64() != seq[1] || c.Uint64() != seq[2] {
		t.Fatal("Seek backwards did not reposition")
	}

	// The derived draws are the same functions of Stream.At: Intn is
	// modulo with rejection (n=3 never rejects at these draws), Float64
	// the top 53 bits, NormFloat64 Box-Muller over two draws.
	c.Seek(0)
	for i := uint64(0); i < 10; i++ {
		if got, want := c.Intn(3), int(s.At(i)%3); got != want {
			t.Fatalf("Intn draw %d = %d, want %d", i, got, want)
		}
	}
	c.Seek(100)
	for i := uint64(100); i < 110; i++ {
		if got, want := c.Float64(), float64(s.At(i)>>11)/(1<<53); got != want {
			t.Fatalf("Float64 draw %d = %v, want %v", i, got, want)
		}
	}
	c.Seek(200)
	for i := uint64(200); i < 220; i += 2 {
		u1 := 1 - float64(s.At(i)>>11)/(1<<53)
		u2 := float64(s.At(i+1)>>11) / (1 << 53)
		if got, want := c.NormFloat64(), boxMuller(u1, u2); got != want {
			t.Fatalf("NormFloat64 at draw %d = %v, want %v", i, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { c.Uint64() }); n != 0 {
		t.Errorf("Cursor.Uint64 allocates %v times per draw, want 0", n)
	}
}

func TestCursorIntnRange(t *testing.T) {
	c := NewCursor(New(testKey(10), "intn"))
	counts := make([]int, 5)
	for i := 0; i < 5000; i++ {
		v := c.Intn(5)
		if v < 0 || v >= 5 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	// Loose uniformity check: each bucket within 30% of expectation.
	for i, n := range counts {
		if n < 700 || n > 1300 {
			t.Errorf("bucket %d count %d outside [700,1300]", i, n)
		}
	}
}

func TestCursorFloat64Range(t *testing.T) {
	c := NewCursor(New(testKey(11), "f64"))
	var sum float64
	const n = 10000
	for i := 0; i < n; i++ {
		v := c.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Errorf("mean = %v, want approx 0.5", mean)
	}
}

func TestCursorNormFloat64Moments(t *testing.T) {
	c := NewCursor(New(testKey(12), "norm"))
	const n = 20000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := c.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Errorf("mean = %v, want approx 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Errorf("variance = %v, want approx 1", variance)
	}
}

func TestCursorPerm(t *testing.T) {
	c := NewCursor(New(testKey(13), "perm"))
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := c.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make(map[int]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestStreamStatelessProperty(t *testing.T) {
	f := func(keyByte byte, label string, idx uint64) bool {
		s := New(testKey(keyByte), label)
		return s.At(idx) == s.At(idx) &&
			New(testKey(keyByte), label).At(idx) == s.At(idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoxMullerFinite(t *testing.T) {
	// u1 must be treated as (0,1]; ensure no NaN/Inf at the boundaries we
	// can produce.
	for _, u1 := range []float64{1e-300, 0.5, 1.0} {
		for _, u2 := range []float64{0, 0.25, 0.999999} {
			v := boxMuller(u1, u2)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("boxMuller(%v, %v) = %v", u1, u2, v)
			}
		}
	}
}

// TestKeyedMatchesStreamAndDerive pins the reusable MAC to the one-shot
// functions it stands in for, message after message on one instance.
func TestKeyedMatchesStreamAndDerive(t *testing.T) {
	key := testKey(3)
	k := NewKeyed(key)
	for _, label := range []string{"", "a", "reversecloak/level=2/salt=7", string(make([]byte, 200))} {
		if got, want := k.Sum([]byte(label)), Derive(key, label); string(got) != string(want) {
			t.Errorf("Sum(%q) = %x, want Derive's %x", label, got, want)
		}
	}
	s := New(key, "level:1")
	ks := NewKeyed(Derive(key, "level:1"))
	for _, i := range []uint64{0, 1, 2, 1, 1 << 40, math.MaxUint64} {
		if got, want := ks.Uint64(i), s.At(i); got != want {
			t.Errorf("Uint64(%d) = %d, want At's %d", i, got, want)
		}
	}
	// A key longer than the hash block is hashed first, as in crypto/hmac.
	long := make([]byte, 100)
	if got, want := NewKeyed(long).Sum([]byte("x")), Derive(long, "x"); string(got) != string(want) {
		t.Error("long-key MAC differs from Derive")
	}
	if n := testing.AllocsPerRun(100, func() { ks.Uint64(9) }); n != 0 {
		t.Errorf("steady-state Uint64 allocates %v times, want 0", n)
	}
}
