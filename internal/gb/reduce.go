package gb

import (
	"fmt"
	"slices"
)

// ReduceScalar folds all stored values of a with the monoid, returning the
// monoid identity for an empty matrix.
func ReduceScalar[T Number](a *Matrix[T], m Monoid[T]) (T, error) {
	if m.Op == nil {
		var zero T
		return zero, fmt.Errorf("%w: monoid with nil operator", ErrInvalidValue)
	}
	a.Wait()
	acc := m.Identity
	for _, v := range a.val {
		acc = m.Op(acc, v)
	}
	return acc, nil
}

// ReduceRows reduces each row of a to a single value with the monoid,
// producing a hypersparse vector with one entry per non-empty row.
// For the plus monoid on a traffic matrix this is the out-degree /
// out-traffic vector.
func ReduceRows[T Number](a *Matrix[T], m Monoid[T]) (*Vector[T], error) {
	if m.Op == nil {
		return nil, fmt.Errorf("%w: monoid with nil operator", ErrInvalidValue)
	}
	a.Wait()
	v, err := NewVector[T](a.nrows)
	if err != nil {
		return nil, err
	}
	v.idx = make([]Index, 0, len(a.rows))
	v.val = make([]T, 0, len(a.rows))
	for k, r := range a.rows {
		acc := m.Identity
		for p := a.ptr[k]; p < a.ptr[k+1]; p++ {
			acc = m.Op(acc, a.val[p])
		}
		v.idx = append(v.idx, r)
		v.val = append(v.val, acc)
	}
	return v, nil
}

// ReduceCols reduces each column of a with the monoid, producing a
// hypersparse vector with one entry per non-empty column (the in-degree /
// in-traffic vector for plus on a traffic matrix). The monoid must be
// commutative: entries are folded in row-major order.
func ReduceCols[T Number](a *Matrix[T], m Monoid[T]) (*Vector[T], error) {
	if m.Op == nil {
		return nil, fmt.Errorf("%w: monoid with nil operator", ErrInvalidValue)
	}
	a.Wait()
	v, err := NewVector[T](a.ncols)
	if err != nil {
		return nil, err
	}
	// Accumulate per distinct column via staged tuples; Wait radix-sorts
	// them by column and combines them with the monoid operator.
	if err := v.SetAccum(m.Op); err != nil {
		return nil, err
	}
	v.pending = make([]vecTuple[T], 0, len(a.col))
	for k := range a.rows {
		for p := a.ptr[k]; p < a.ptr[k+1]; p++ {
			v.pending = append(v.pending, vecTuple[T]{idx: a.col[p], val: a.val[p]})
		}
	}
	v.Wait()
	return v, nil
}

// Digest is a matrix's headline shape: how many entries, non-empty rows and
// non-empty columns it stores, the sum of its values, and its largest row
// and column pattern degrees (stored entries per row or column). On a
// traffic matrix these are the entry, source and destination counts, the
// packet total, and the max out- and in-degree.
type Digest[T Number] struct {
	Entries      int
	Rows, Cols   int
	Total        T
	MaxRowDegree uint64
	MaxColDegree uint64
}

// DigestOf computes a's Digest in one linear pass over the DCSR arrays:
// entry and row counts and the row degrees come from the row pointers, the
// total from one sweep of the values (folded in storage order, like
// ReduceScalar with plus), and the column count and column degrees from a
// radix sort of a copy of the column ids alone — no degree vectors and no
// value copies.
func DigestOf[T Number](a *Matrix[T]) Digest[T] {
	a.Wait()
	d := Digest[T]{Entries: len(a.col), Rows: len(a.rows)}
	for k := range a.rows {
		if deg := uint64(a.ptr[k+1] - a.ptr[k]); deg > d.MaxRowDegree {
			d.MaxRowDegree = deg
		}
	}
	for _, x := range a.val {
		d.Total += x
	}
	n := len(a.col)
	cols := append([]uint64(nil), a.col...)
	if n >= 128 {
		andKey, orKey := ^uint64(0), uint64(0)
		for _, c := range cols {
			andKey &= c
			orKey |= c
		}
		none := make([]struct{}, n)
		cols, _ = radixSortPacked(cols, make([]uint64, n), none, none, andKey, orKey)
	} else {
		slices.Sort(cols)
	}
	for k := 0; k < n; {
		j := k + 1
		for j < n && cols[j] == cols[k] {
			j++
		}
		d.Cols++
		d.MaxColDegree = max(d.MaxColDegree, uint64(j-k))
		k = j
	}
	return d
}
