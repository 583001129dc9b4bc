package gb

import (
	"cmp"
	"errors"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestVectorBasics(t *testing.T) {
	v := MustNewVector[int64](100)
	if v.Size() != 100 {
		t.Fatalf("Size = %d", v.Size())
	}
	_ = v.SetElement(5, 2)
	_ = v.SetElement(5, 3)
	_ = v.SetElement(50, 7)
	if v.NVals() != 2 {
		t.Fatalf("NVals = %d", v.NVals())
	}
	x, err := v.ExtractElement(5)
	if err != nil || x != 5 {
		t.Fatalf("v(5) = %d, %v", x, err)
	}
	if _, err := v.ExtractElement(6); !errors.Is(err, ErrNoValue) {
		t.Fatalf("got %v", err)
	}
	if _, err := v.ExtractElement(200); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("got %v", err)
	}
}

func TestVectorZeroSizeRejected(t *testing.T) {
	if _, err := NewVector[int64](0); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("got %v", err)
	}
}

func TestVectorSetElementOOB(t *testing.T) {
	v := MustNewVector[int64](4)
	if err := v.SetElement(4, 1); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("got %v", err)
	}
}

func TestVectorBuild(t *testing.T) {
	v := MustNewVector[int64](10)
	err := v.Build([]Index{3, 3, 7}, []int64{1, 10, 5}, Plus[int64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := v.ExtractElement(3)
	if x != 11 {
		t.Fatalf("dup combine = %d", x)
	}
	if err := v.Build([]Index{1}, []int64{1}, Plus[int64]().Op); !errors.Is(err, ErrOutputNotEmpty) {
		t.Fatalf("rebuild: %v", err)
	}
}

func TestVectorBuildErrors(t *testing.T) {
	v := MustNewVector[int64](10)
	if err := v.Build([]Index{1, 2}, []int64{1}, Plus[int64]().Op); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("length mismatch: %v", err)
	}
	if err := v.Build([]Index{10}, []int64{1}, Plus[int64]().Op); !errors.Is(err, ErrIndexOutOfBounds) {
		t.Fatalf("oob: %v", err)
	}
	if err := v.Build([]Index{1}, []int64{1}, nil); !errors.Is(err, ErrInvalidValue) {
		t.Fatalf("nil dup: %v", err)
	}
}

func TestVectorBuildRestoresAccum(t *testing.T) {
	v := MustNewVector[int64](10)
	if err := v.Build([]Index{1, 1}, []int64{5, 9}, Second[int64]); err != nil {
		t.Fatal(err)
	}
	x, _ := v.ExtractElement(1)
	if x != 9 {
		t.Fatalf("second dup = %d", x)
	}
	// After Build, default accumulation (+) applies again.
	_ = v.SetElement(1, 1)
	x, _ = v.ExtractElement(1)
	if x != 10 {
		t.Fatalf("accum after build = %d, want 10", x)
	}
}

func TestVectorWaitMergesSortedUnion(t *testing.T) {
	v := MustNewVector[int64](100)
	_ = v.SetElement(50, 1)
	v.Wait()
	_ = v.SetElement(10, 2)
	_ = v.SetElement(50, 3)
	_ = v.SetElement(90, 4)
	v.Wait()
	idx, vals := v.ExtractTuples()
	wantIdx := []Index{10, 50, 90}
	wantVal := []int64{2, 4, 4}
	if len(idx) != 3 {
		t.Fatalf("idx = %v", idx)
	}
	for k := range wantIdx {
		if idx[k] != wantIdx[k] || vals[k] != wantVal[k] {
			t.Fatalf("entry %d: (%d,%d), want (%d,%d)", k, idx[k], vals[k], wantIdx[k], wantVal[k])
		}
	}
}

func TestVectorClearDup(t *testing.T) {
	v := MustNewVector[int64](10)
	_ = v.SetElement(1, 5)
	d := v.Dup()
	v.Clear()
	if v.NVals() != 0 {
		t.Fatalf("clear: %d", v.NVals())
	}
	if d.NVals() != 1 {
		t.Fatalf("dup affected by clear: %d", d.NVals())
	}
}

func TestVecEWiseAddBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(40))
	f := func() bool {
		a := MustNewVector[int64](64)
		b := MustNewVector[int64](64)
		for k := 0; k < 30; k++ {
			_ = a.SetElement(Index(r.Uint64()%64), int64(r.Intn(9)))
			_ = b.SetElement(Index(r.Uint64()%64), int64(r.Intn(9)))
		}
		c, err := VecEWiseAdd(a, b, Plus[int64]().Op)
		if err != nil {
			return false
		}
		ref := make(map[Index]int64)
		a.Iterate(func(i Index, x int64) bool { ref[i] += x; return true })
		b.Iterate(func(i Index, x int64) bool { ref[i] += x; return true })
		if c.NVals() != len(ref) {
			return false
		}
		ok := true
		c.Iterate(func(i Index, x int64) bool {
			if ref[i] != x {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestVecEWiseMultIntersection(t *testing.T) {
	a := MustNewVector[int64](10)
	b := MustNewVector[int64](10)
	_ = a.SetElement(1, 2)
	_ = a.SetElement(2, 3)
	_ = b.SetElement(2, 4)
	_ = b.SetElement(3, 5)
	c, err := VecEWiseMult(a, b, Times[int64]().Op)
	if err != nil {
		t.Fatal(err)
	}
	if c.NVals() != 1 {
		t.Fatalf("NVals = %d", c.NVals())
	}
	x, _ := c.ExtractElement(2)
	if x != 12 {
		t.Fatalf("value = %d", x)
	}
}

func TestVecDimensionMismatch(t *testing.T) {
	a := MustNewVector[int64](4)
	b := MustNewVector[int64](5)
	if _, err := VecEWiseAdd(a, b, Plus[int64]().Op); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("add: %v", err)
	}
	if _, err := VecEWiseMult(a, b, Times[int64]().Op); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("mult: %v", err)
	}
}

func TestVecReduceAndApply(t *testing.T) {
	v := MustNewVector[int64](10)
	_ = v.SetElement(1, 3)
	_ = v.SetElement(5, 4)
	total, err := VecReduce(v, Plus[int64]())
	if err != nil || total != 7 {
		t.Fatalf("reduce = %d, %v", total, err)
	}
	doubled, err := VecApply(v, func(x int64) int64 { return 2 * x })
	if err != nil {
		t.Fatal(err)
	}
	total2, _ := VecReduce(doubled, Plus[int64]())
	if total2 != 14 {
		t.Fatalf("apply+reduce = %d", total2)
	}
}

func TestVectorIterateEarlyStop(t *testing.T) {
	v := MustNewVector[int64](10)
	for k := Index(0); k < 6; k++ {
		_ = v.SetElement(k, 1)
	}
	n := 0
	v.Iterate(func(Index, int64) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("visited %d", n)
	}
}

func TestVectorHugeIndexSpace(t *testing.T) {
	v := MustNewVector[uint64](1 << 60)
	_ = v.SetElement(1<<59, 42)
	x, err := v.ExtractElement(1 << 59)
	if err != nil || x != 42 {
		t.Fatalf("got %d, %v", x, err)
	}
}

// refVecWait is the reference the radix Vector.Wait must match bit for
// bit: a stable comparison sort of the staged tuples by index, duplicates
// folded left to right, then each folded value combined into the stored
// one (stored value as left operand) — the pre-radix implementation.
func refVecWait[T Number](stored map[Index]T, pending []vecTuple[T], op BinaryOp[T]) map[Index]T {
	p := append([]vecTuple[T](nil), pending...)
	slices.SortStableFunc(p, func(a, b vecTuple[T]) int { return cmp.Compare(a.idx, b.idx) })
	out := maps.Clone(stored)
	for k := 0; k < len(p); {
		acc := p[k].val
		j := k + 1
		for ; j < len(p) && p[j].idx == p[k].idx; j++ {
			acc = op(acc, p[j].val)
		}
		if old, ok := out[p[k].idx]; ok {
			acc = op(old, acc)
		}
		out[p[k].idx] = acc
		k = j
	}
	return out
}

// TestVectorWaitRadixMatchesStableSort drives Vector.Wait through both
// sort paths (below and at or above the 128-tuple radix cutoff) with many
// duplicates, indices spread over a 2^64-1 index space up to n-1, float64
// plus (rounding depends on fold order) and a non-commutative,
// non-associative accumulator, and compares every result bit for bit with
// the stable-sort reference — after a first batch and again after a second
// batch merges into the stored entries.
func TestVectorWaitRadixMatchesStableSort(t *testing.T) {
	const n = ^Index(0) // indices up to n-1 = 2^64-2
	ops := []struct {
		name string
		op   BinaryOp[float64]
	}{
		{"plus", Plus[float64]().Op},
		{"noncommutative", func(x, y float64) float64 { return 2*x - y/3 }},
	}
	rng := rand.New(rand.NewSource(5))
	for _, o := range ops {
		name, op := o.name, o.op
		for _, size := range []int{1, 2, 127, 128, 129, 1000, 5000} {
			// A small pool of distinct indices forces many duplicates; it
			// always holds 0 and n-1 and otherwise spans all 64 bits.
			pool := []Index{0, n - 1, n - 2, 1 << 32, 1<<32 - 1}
			for len(pool) < 1+size/8 {
				pool = append(pool, Index(rng.Uint64()%uint64(n)))
			}
			v := MustNewVector[float64](n)
			if err := v.SetAccum(op); err != nil {
				t.Fatal(err)
			}
			want := map[Index]float64{}
			for round := 0; round < 2; round++ {
				batch := make([]vecTuple[float64], size)
				for k := range batch {
					batch[k] = vecTuple[float64]{idx: pool[rng.Intn(len(pool))], val: rng.NormFloat64() * 1e3}
					if err := v.SetElement(batch[k].idx, batch[k].val); err != nil {
						t.Fatal(err)
					}
				}
				want = refVecWait(want, batch, op)
				idx, val := v.ExtractTuples()
				if len(idx) != len(want) {
					t.Fatalf("%s size %d round %d: %d entries, want %d", name, size, round, len(idx), len(want))
				}
				for k, i := range idx {
					if k > 0 && idx[k-1] >= i {
						t.Fatalf("%s size %d round %d: indices not strictly ascending at %d", name, size, round, k)
					}
					if math.Float64bits(val[k]) != math.Float64bits(want[i]) {
						t.Fatalf("%s size %d round %d: v(%d) = %v, want %v", name, size, round, i, val[k], want[i])
					}
				}
			}
		}
	}
}
