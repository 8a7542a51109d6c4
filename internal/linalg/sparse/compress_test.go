package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refCompress is the comparison-sort compression the counting sort
// replaced, kept as the reference: a stable sort column-major, duplicates
// summed in insertion order, exact zeros dropped.
func refCompress(b *Builder) []entry {
	es := make([]entry, len(b.entries))
	copy(es, b.entries)
	sort.SliceStable(es, func(x, y int) bool {
		if es[x].col != es[y].col {
			return es[x].col < es[y].col
		}
		return es[x].row < es[y].row
	})
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].row == e.row && out[n-1].col == e.col {
			out[n-1].val += e.val
			continue
		}
		out = append(out, e)
	}
	kept := out[:0]
	for _, e := range out {
		if e.val != 0 {
			kept = append(kept, e)
		}
	}
	return kept
}

// refCSC and refCSR lay refCompress's entries out as the reference ToCSC
// and ToCSR did (ToCSR re-sorting them row-major).
func refCSC(b *Builder) *CSC {
	es := refCompress(b)
	m := &CSC{rows: b.rows, cols: b.cols, colPtr: make([]int, b.cols+1),
		rowIdx: make([]int, len(es)), values: make([]float64, len(es))}
	for k, e := range es {
		m.colPtr[e.col+1]++
		m.rowIdx[k] = e.row
		m.values[k] = e.val
	}
	for j := 0; j < b.cols; j++ {
		m.colPtr[j+1] += m.colPtr[j]
	}
	return m
}

func refCSR(b *Builder) *CSR {
	es := refCompress(b)
	sort.SliceStable(es, func(x, y int) bool {
		if es[x].row != es[y].row {
			return es[x].row < es[y].row
		}
		return es[x].col < es[y].col
	})
	m := &CSR{rows: b.rows, cols: b.cols, rowPtr: make([]int, b.rows+1),
		colIdx: make([]int, len(es)), values: make([]float64, len(es))}
	for k, e := range es {
		m.rowPtr[e.row+1]++
		m.colIdx[k] = e.col
		m.values[k] = e.val
	}
	for i := 0; i < b.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// sameLayout reports whether two compressed layouts agree in shape, pointer
// and index arrays, and every value's bits.
func sameLayout(r1, c1 int, p1, i1 []int, v1 []float64, r2, c2 int, p2, i2 []int, v2 []float64) bool {
	if r1 != r2 || c1 != c2 || len(p1) != len(p2) || len(i1) != len(i2) || len(v1) != len(v2) {
		return false
	}
	for k := range p1 {
		if p1[k] != p2[k] {
			return false
		}
	}
	for k := range i1 {
		if i1[k] != i2[k] || math.Float64bits(v1[k]) != math.Float64bits(v2[k]) {
			return false
		}
	}
	return true
}

// checkMatchesReference fails t unless ToCSC and ToCSR equal the reference
// compression of b bit for bit.
func checkMatchesReference(t *testing.T, b *Builder) {
	t.Helper()
	got, want := b.ToCSC(), refCSC(b)
	if !sameLayout(got.rows, got.cols, got.colPtr, got.rowIdx, got.values,
		want.rows, want.cols, want.colPtr, want.rowIdx, want.values) {
		t.Fatalf("ToCSC differs from the stable-sort reference:\n got %+v\nwant %+v", got, want)
	}
	gotR, wantR := b.ToCSR(), refCSR(b)
	if !sameLayout(gotR.rows, gotR.cols, gotR.rowPtr, gotR.colIdx, gotR.values,
		wantR.rows, wantR.cols, wantR.rowPtr, wantR.colIdx, wantR.values) {
		t.Fatalf("ToCSR differs from the stable-sort reference:\n got %+v\nwant %+v", gotR, wantR)
	}
}

// TestBuilderCompressMatchesStableSort: the counting-sort compression must
// reproduce the stable comparison sort exactly on rectangular builders with
// non-dyadic values (whose sums depend on summation order), many
// duplicates, sums cancelling to exactly zero, -0 entries, and empty rows
// and columns.
func TestBuilderCompressMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	negZero := math.Copysign(0, -1)
	for trial := 0; trial < 400; trial++ {
		rows, cols := rng.Intn(12), rng.Intn(12)
		b := NewBuilder(rows, cols)
		if rows > 0 && cols > 0 {
			// A small coordinate pool forces duplicates and leaves some rows
			// and columns empty.
			pool := 1 + rng.Intn(2*(rows+cols))
			coords := make([][2]int, pool)
			for k := range coords {
				coords[k] = [2]int{rng.Intn(rows), rng.Intn(cols)}
			}
			for k := rng.Intn(80); k > 0; k-- {
				c := coords[rng.Intn(pool)]
				switch v := (rng.Float64() - 0.5) * 7 / 3; rng.Intn(8) {
				case 0:
					b.Add(c[0], c[1], negZero)
				case 1:
					// v, w, -(v+w): the running sum cancels to exactly 0 in
					// insertion order.
					w := float64(rng.Intn(9)-4) / 10
					b.Add(c[0], c[1], v)
					b.Add(c[0], c[1], w)
					b.Add(c[0], c[1], -(v + w))
				default:
					b.Add(c[0], c[1], v)
				}
			}
		}
		checkMatchesReference(t, b)
	}
}
