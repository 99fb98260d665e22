package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genInterval draws a random non-empty interval, biased toward small
// ranges and interesting boundary values.
func genInterval(r *rand.Rand) Interval {
	pick := func() int64 {
		switch r.Intn(6) {
		case 0:
			return int64(r.Intn(256)) - 128
		case 1:
			return int64(r.Intn(1 << 16))
		case 2:
			return int64(r.Uint64()) // full range
		case 3:
			return math.MaxInt64 - int64(r.Intn(4))
		case 4:
			return math.MinInt64 + int64(r.Intn(4))
		default:
			return int64(r.Intn(1<<20)) - 1<<19
		}
	}
	a, b := pick(), pick()
	if a > b {
		a, b = b, a
	}
	return New(a, b)
}

// sample draws a concrete value inside the interval.
func sample(r *rand.Rand, iv Interval) int64 {
	if lo, ok := iv.IsConst(); ok {
		return lo
	}
	span := uint64(iv.Hi) - uint64(iv.Lo)
	if span == math.MaxUint64 {
		return int64(r.Uint64())
	}
	return iv.Lo + int64(r.Uint64()%(span+1))
}

// checkBinary verifies that the abstract transfer function over-approximates
// the concrete operation for random intervals and random members.
func checkBinary(t *testing.T, name string, abstract func(a, b Interval) Interval, concrete func(x, y int64) int64) {
	t.Helper()
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 3000; i++ {
		a, b := genInterval(r), genInterval(r)
		res := abstract(a, b)
		for j := 0; j < 8; j++ {
			x, y := sample(r, a), sample(r, b)
			got := concrete(x, y)
			if !res.Contains(got) {
				t.Fatalf("%s unsound: %v op %v = %v, but %d op %d = %d not in result",
					name, a, b, res, x, y, got)
			}
		}
	}
}

func TestAddSound(t *testing.T) {
	checkBinary(t, "add", Add, func(x, y int64) int64 { return x + y })
}

func TestSubSound(t *testing.T) {
	checkBinary(t, "sub", Sub, func(x, y int64) int64 { return x - y })
}

func TestMulSound(t *testing.T) {
	checkBinary(t, "mul", Mul, func(x, y int64) int64 { return x * y })
}

func TestAndSound(t *testing.T) {
	checkBinary(t, "and", And, func(x, y int64) int64 { return x & y })
}

func TestOrSound(t *testing.T) {
	checkBinary(t, "or", Or, func(x, y int64) int64 { return x | y })
}

func TestXorSound(t *testing.T) {
	checkBinary(t, "xor", Xor, func(x, y int64) int64 { return x ^ y })
}

func TestAndNotSound(t *testing.T) {
	checkBinary(t, "bic", AndNot, func(x, y int64) int64 { return x &^ y })
}

func TestShlSound(t *testing.T) {
	checkBinary(t, "shl", Shl, func(x, y int64) int64 { return x << uint(y&63) })
}

func TestShrSound(t *testing.T) {
	checkBinary(t, "shr", Shr, func(x, y int64) int64 { return int64(uint64(x) >> uint(y&63)) })
}

func TestSarSound(t *testing.T) {
	checkBinary(t, "sar", Sar, func(x, y int64) int64 { return x >> uint(y&63) })
}

func TestMaskLowSound(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		a := genInterval(r)
		k := 1 + r.Intn(8)
		res := MaskLow(a, k)
		for j := 0; j < 8; j++ {
			x := sample(r, a)
			var got int64
			if k >= 8 {
				got = x
			} else {
				got = x & (int64(1)<<uint(8*k) - 1)
			}
			if !res.Contains(got) {
				t.Fatalf("mskl(%v, %d) = %v missing %d -> %d", a, k, res, x, got)
			}
		}
	}
}

func TestSignExtendSound(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 2000; i++ {
		a := genInterval(r)
		k := 1 + r.Intn(8)
		res := SignExtend(a, k)
		for j := 0; j < 8; j++ {
			x := sample(r, a)
			shift := uint(64 - 8*k)
			got := x << shift >> shift
			if !res.Contains(got) {
				t.Fatalf("sext(%v, %d) = %v missing %d -> %d", a, k, res, x, got)
			}
		}
	}
}

func TestSignificantBytes(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 1}, {1, 1}, {127, 1}, {-1, 1}, {-128, 1},
		{128, 2}, {-129, 2}, {255, 2}, {32767, 2}, {-32768, 2},
		{32768, 3}, {1 << 23, 4}, {1<<31 - 1, 4}, {-(1 << 31), 4},
		{1 << 31, 5}, {1 << 32, 5}, {0xFF_FFFF_FFFF, 6},
		{math.MaxInt64, 8}, {math.MinInt64, 8},
	}
	for _, c := range cases {
		if got := SignificantBytes(c.v); got != c.want {
			t.Errorf("SignificantBytes(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestSignificantBytesRoundTrip: sign-extending the low k bytes of v
// reproduces v exactly when k >= SignificantBytes(v).
func TestSignificantBytesRoundTrip(t *testing.T) {
	f := func(v int64) bool {
		k := SignificantBytes(v)
		shift := uint(64 - 8*k)
		return v<<shift>>shift == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBytesCoversMembers: every member of an interval fits in the
// interval's byte width.
func TestBytesCoversMembers(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 2000; i++ {
		iv := genInterval(r)
		k := iv.Bytes()
		for j := 0; j < 8; j++ {
			x := sample(r, iv)
			if SignificantBytes(x) > k {
				t.Fatalf("interval %v (k=%d) contains %d needing %d bytes",
					iv, k, x, SignificantBytes(x))
			}
		}
	}
}

// subset reports whether inner is a subset of outer.
func subset(outer, inner Interval) bool {
	if inner.IsEmpty() {
		return true
	}
	return outer.ok && outer.Lo <= inner.Lo && inner.Hi <= outer.Hi
}

func TestJoinMeetLaws(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		a, b := genInterval(r), genInterval(r)
		j := a.Join(b)
		if !subset(j, a) || !subset(j, b) {
			t.Fatalf("join %v ∨ %v = %v does not contain both", a, b, j)
		}
		m := a.Meet(b)
		if !m.IsEmpty() {
			if !subset(a, m) || !subset(b, m) {
				t.Fatalf("meet %v ∧ %v = %v not contained in both", a, b, m)
			}
		}
		// Join is commutative and idempotent.
		if !j.Equal(b.Join(a)) {
			t.Fatalf("join not commutative: %v vs %v", j, b.Join(a))
		}
		if !a.Join(a).Equal(a) {
			t.Fatalf("join not idempotent for %v", a)
		}
	}
}

func TestWidthBounds(t *testing.T) {
	for k := 1; k <= 8; k++ {
		iv := WidthBounds(k)
		if iv.Bytes() != k {
			t.Errorf("WidthBounds(%d).Bytes() = %d", k, iv.Bytes())
		}
		if k < 8 {
			if iv.Lo != -(int64(1)<<uint(8*k-1)) || iv.Hi != int64(1)<<uint(8*k-1)-1 {
				t.Errorf("WidthBounds(%d) = %v", k, iv)
			}
			u := UnsignedWidthBounds(k)
			if u.Lo != 0 || u.Hi != int64(1)<<uint(8*k)-1 {
				t.Errorf("UnsignedWidthBounds(%d) = %v", k, u)
			}
		}
	}
}

func TestEmptyAndConst(t *testing.T) {
	if !Empty().IsEmpty() {
		t.Error("Empty not empty")
	}
	if Empty().Contains(0) {
		t.Error("Empty contains 0")
	}
	c := Const(42)
	if v, ok := c.IsConst(); !ok || v != 42 {
		t.Error("Const(42) not constant 42")
	}
	if _, ok := Top().IsConst(); ok {
		t.Error("Top is constant")
	}
	if !Top().IsTop() {
		t.Error("Top not top")
	}
	if Add(Empty(), Top()).ok {
		t.Error("Add with empty operand must be empty")
	}
}

func TestNewPanicsOnInverted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(1, 0) did not panic")
		}
	}()
	New(1, 0)
}
