package gb

import "fmt"

// vecTuple is a staged vector update.
type vecTuple[T Number] struct {
	idx Index
	val T
}

// Vector is a hypersparse vector of T values: sorted indices plus values,
// with a pending-tuple buffer mirroring Matrix's non-blocking mode.
type Vector[T Number] struct {
	n       Index
	idx     []Index
	val     []T
	pending []vecTuple[T]
	accum   BinaryOp[T]
}

// NewVector returns an empty vector of size n (> 0) with plus accumulation.
func NewVector[T Number](n Index) (*Vector[T], error) {
	if n == 0 {
		return nil, fmt.Errorf("%w: vector size must be nonzero", ErrInvalidValue)
	}
	return &Vector[T]{n: n, accum: Plus[T]().Op}, nil
}

// MustNewVector is NewVector that panics on error; for tests and examples.
func MustNewVector[T Number](n Index) *Vector[T] {
	v, err := NewVector[T](n)
	if err != nil {
		panic(err)
	}
	return v
}

// Size returns the vector's index-space size.
func (v *Vector[T]) Size() Index { return v.n }

// NVals returns the number of stored entries, materializing pending updates.
func (v *Vector[T]) NVals() int {
	v.Wait()
	return len(v.idx)
}

// SetAccum replaces the duplicate-combining operator. It must be called
// while no pending updates are staged.
func (v *Vector[T]) SetAccum(op BinaryOp[T]) error {
	if len(v.pending) != 0 {
		return fmt.Errorf("%w: cannot change accumulator with pending updates", ErrInvalidValue)
	}
	v.accum = op
	return nil
}

// SetElement stages v(i) ⊕= x.
func (v *Vector[T]) SetElement(i Index, x T) error {
	if i >= v.n {
		return fmt.Errorf("%w: %d outside vector of size %d", ErrIndexOutOfBounds, i, v.n)
	}
	v.pending = append(v.pending, vecTuple[T]{idx: i, val: x})
	return nil
}

// Build assembles the vector from index/value lists, combining duplicates
// with dup; the vector must be empty.
func (v *Vector[T]) Build(idx []Index, vals []T, dup BinaryOp[T]) error {
	if len(v.idx) != 0 || len(v.pending) != 0 {
		return ErrOutputNotEmpty
	}
	if len(idx) != len(vals) {
		return fmt.Errorf("%w: slice lengths %d/%d differ", ErrInvalidValue, len(idx), len(vals))
	}
	if dup == nil {
		return fmt.Errorf("%w: nil dup operator", ErrInvalidValue)
	}
	for _, i := range idx {
		if i >= v.n {
			return fmt.Errorf("%w: %d outside vector of size %d", ErrIndexOutOfBounds, i, v.n)
		}
	}
	saved := v.accum
	v.accum = dup
	for k := range idx {
		v.pending = append(v.pending, vecTuple[T]{idx: idx[k], val: vals[k]})
	}
	v.Wait()
	v.accum = saved
	return nil
}

// ExtractElement returns the stored value at i, or ErrNoValue.
func (v *Vector[T]) ExtractElement(i Index) (T, error) {
	var zero T
	if i >= v.n {
		return zero, fmt.Errorf("%w: %d outside vector of size %d", ErrIndexOutOfBounds, i, v.n)
	}
	v.Wait()
	p, ok := searchIndex(v.idx, i)
	if !ok {
		return zero, ErrNoValue
	}
	return v.val[p], nil
}

// ExtractTuples returns copies of the stored indices and values in order.
func (v *Vector[T]) ExtractTuples() ([]Index, []T) {
	v.Wait()
	return append([]Index(nil), v.idx...), append([]T(nil), v.val...)
}

// Iterate calls f for each stored entry in index order; stops early on false.
func (v *Vector[T]) Iterate(f func(i Index, x T) bool) {
	v.Wait()
	for k := range v.idx {
		if !f(v.idx[k], v.val[k]) {
			return
		}
	}
}

// Clear removes all entries, keeping the size and accumulator.
func (v *Vector[T]) Clear() {
	v.idx = nil
	v.val = nil
	v.pending = nil
}

// Dup returns a deep copy with pending updates materialized.
func (v *Vector[T]) Dup() *Vector[T] {
	v.Wait()
	return &Vector[T]{
		n:     v.n,
		idx:   append([]Index(nil), v.idx...),
		val:   append([]T(nil), v.val...),
		accum: v.accum,
	}
}

// Wait materializes pending vector updates: a stable sort of the batch by
// index, duplicates folded left to right with the accumulator (so they
// combine in insertion order, exactly even for float or non-commutative
// operators), then a union-merge with the stored entries. The sort is the
// matrix Wait's: an LSD radix sort for 128 or more pending updates —
// linear in the batch, which is what keeps column reductions (ReduceCols,
// and every in-degree and column-sum vector built on it) linear — and a
// stable insertion sort below that.
func (v *Vector[T]) Wait() {
	if len(v.pending) == 0 {
		return
	}
	n := len(v.pending)
	ka, va := make([]uint64, n), make([]T, n)
	andKey, orKey := ^uint64(0), uint64(0)
	for k, t := range v.pending {
		ka[k], va[k] = t.idx, t.val
		andKey &= t.idx
		orKey |= t.idx
	}
	v.pending = nil
	if n >= 128 {
		ka, va = radixSortPacked(ka, make([]uint64, n), va, make([]T, n), andKey, orKey)
	} else {
		insertionSortPacked(ka, va)
	}
	w := 0
	for r := 1; r < n; r++ {
		if ka[r] == ka[w] {
			va[w] = v.accum(va[w], va[r])
		} else {
			w++
			ka[w], va[w] = ka[r], va[r]
		}
	}
	pidx, pval := ka[:w+1], va[:w+1]

	if len(v.idx) == 0 {
		v.idx = append([]Index(nil), pidx...)
		v.val = append([]T(nil), pval...)
		return
	}
	nidx := make([]Index, 0, len(v.idx)+len(pidx))
	nval := make([]T, 0, len(v.val)+len(pidx))
	i, j := 0, 0
	for i < len(v.idx) || j < len(pidx) {
		switch {
		case j >= len(pidx) || (i < len(v.idx) && v.idx[i] < pidx[j]):
			nidx = append(nidx, v.idx[i])
			nval = append(nval, v.val[i])
			i++
		case i >= len(v.idx) || pidx[j] < v.idx[i]:
			nidx = append(nidx, pidx[j])
			nval = append(nval, pval[j])
			j++
		default:
			nidx = append(nidx, v.idx[i])
			nval = append(nval, v.accum(v.val[i], pval[j]))
			i++
			j++
		}
	}
	v.idx, v.val = nidx, nval
}

// VecEWiseAdd returns the union combination of a and b.
func VecEWiseAdd[T Number](a, b *Vector[T], add BinaryOp[T]) (*Vector[T], error) {
	if a.n != b.n {
		return nil, fmt.Errorf("%w: vectors %d vs %d", ErrDimensionMismatch, a.n, b.n)
	}
	if add == nil {
		return nil, fmt.Errorf("%w: nil add operator", ErrInvalidValue)
	}
	a.Wait()
	b.Wait()
	c := &Vector[T]{n: a.n, accum: a.accum}
	i, j := 0, 0
	for i < len(a.idx) || j < len(b.idx) {
		switch {
		case j >= len(b.idx) || (i < len(a.idx) && a.idx[i] < b.idx[j]):
			c.idx = append(c.idx, a.idx[i])
			c.val = append(c.val, a.val[i])
			i++
		case i >= len(a.idx) || b.idx[j] < a.idx[i]:
			c.idx = append(c.idx, b.idx[j])
			c.val = append(c.val, b.val[j])
			j++
		default:
			c.idx = append(c.idx, a.idx[i])
			c.val = append(c.val, add(a.val[i], b.val[j]))
			i++
			j++
		}
	}
	return c, nil
}

// VecEWiseMult returns the intersection combination of a and b.
func VecEWiseMult[T Number](a, b *Vector[T], mul BinaryOp[T]) (*Vector[T], error) {
	if a.n != b.n {
		return nil, fmt.Errorf("%w: vectors %d vs %d", ErrDimensionMismatch, a.n, b.n)
	}
	if mul == nil {
		return nil, fmt.Errorf("%w: nil mul operator", ErrInvalidValue)
	}
	a.Wait()
	b.Wait()
	c := &Vector[T]{n: a.n, accum: a.accum}
	i, j := 0, 0
	for i < len(a.idx) && j < len(b.idx) {
		switch {
		case a.idx[i] < b.idx[j]:
			i++
		case b.idx[j] < a.idx[i]:
			j++
		default:
			c.idx = append(c.idx, a.idx[i])
			c.val = append(c.val, mul(a.val[i], b.val[j]))
			i++
			j++
		}
	}
	return c, nil
}

// VecReduce folds all stored values with the monoid.
func VecReduce[T Number](v *Vector[T], m Monoid[T]) (T, error) {
	if m.Op == nil {
		var zero T
		return zero, fmt.Errorf("%w: monoid with nil operator", ErrInvalidValue)
	}
	v.Wait()
	acc := m.Identity
	for _, x := range v.val {
		acc = m.Op(acc, x)
	}
	return acc, nil
}

// VecApply returns a new vector with f applied to every stored value.
func VecApply[T Number](v *Vector[T], f UnaryOp[T]) (*Vector[T], error) {
	if f == nil {
		return nil, fmt.Errorf("%w: nil unary operator", ErrInvalidValue)
	}
	c := v.Dup()
	for k := range c.val {
		c.val[k] = f(c.val[k])
	}
	return c, nil
}
