package gb_test

import (
	"testing"

	"hhgb/internal/gb"
	"hhgb/internal/powerlaw"
)

// rmatMatrix is 2^18 Graph500 R-MAT updates at scale 24, assembled: the
// power-law shape the column-reduction and summary kernels see in a
// sealed window.
func rmatMatrix(b *testing.B) *gb.Matrix[uint64] {
	b.Helper()
	const n, scale = 1 << 18, 24
	g, err := powerlaw.NewRMAT(scale, 1)
	if err != nil {
		b.Fatal(err)
	}
	rows, cols, vals := make([]gb.Index, n), make([]gb.Index, n), make([]uint64, n)
	if err := g.Fill(rows, cols); err != nil {
		b.Fatal(err)
	}
	for k := range vals {
		vals[k] = 1
	}
	m, err := gb.MatrixFromTuples(1<<scale, 1<<scale, rows, cols, vals, gb.Plus[uint64]().Op)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkReduceCols measures the column-reduction kernel (the in-degree
// and column-sum vectors): one pending tuple per entry, assembled by the
// radix-sorted Vector.Wait.
func BenchmarkReduceCols(b *testing.B) {
	m := rmatMatrix(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gb.ReduceCols(m, gb.Plus[uint64]()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(m.NVals())/b.Elapsed().Seconds(), "entries/s")
}
