package sparse

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gridattack/internal/linalg"
)

// randSPD builds a random sparse diagonally dominant matrix (structurally a
// ring plus chords, like the reduced susceptance matrices in this repo).
func randSPD(n int, rng *rand.Rand) *Builder {
	b := NewBuilder(n, n)
	diag := make([]float64, n)
	stamp := func(i, j int) {
		w := 1 + 20*rng.Float64()
		b.Add(i, j, -w)
		b.Add(j, i, -w)
		diag[i] += w
		diag[j] += w
	}
	for i := 0; i < n-1; i++ {
		stamp(i, i+1)
	}
	chords := n / 2
	for c := 0; c < chords; c++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			stamp(i, j)
		}
	}
	for i := 0; i < n; i++ {
		b.Add(i, i, diag[i]+0.5+rng.Float64())
	}
	return b
}

func denseOf(m *CSC) *linalg.Matrix {
	d := linalg.NewMatrix(m.Rows(), m.Cols())
	rows := m.Dense()
	for i := range rows {
		for j, v := range rows[i] {
			d.Set(i, j, v)
		}
	}
	return d
}

func TestBuilderDuplicatesAndZeros(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 2)
	b.Add(0, 0, 3) // duplicate: sums to 5
	b.Add(1, 2, 4)
	b.Add(1, 2, -4) // cancels: dropped
	b.Add(2, 1, -1.5)
	m := b.ToCSC()
	if got := m.At(0, 0); got != 5 {
		t.Errorf("At(0,0) = %v, want 5", got)
	}
	if got := m.At(1, 2); got != 0 {
		t.Errorf("At(1,2) = %v, want 0 (cancelled)", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
	r := b.ToCSR()
	if got := r.RowNNZ(1); got != 0 {
		t.Errorf("row 1 nnz = %d, want 0", got)
	}
	if got := r.RowNNZ(2); got != 1 {
		t.Errorf("row 2 nnz = %d, want 1", got)
	}
}

func TestCSCMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		b := NewBuilder(rows, cols)
		for k := 0; k < rows*cols/2; k++ {
			b.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
		}
		csc := b.ToCSC()
		csr := b.ToCSR()
		d := denseOf(csc)
		v := make([]float64, cols)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		want, err := d.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		got1, err := csc.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		got2, err := csr.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got1[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d: CSC MulVec[%d] = %v, want %v", trial, i, got1[i], want[i])
			}
			if math.Abs(got2[i]-want[i]) > 1e-12 {
				t.Fatalf("trial %d: CSR MulVec[%d] = %v, want %v", trial, i, got2[i], want[i])
			}
		}
	}
}

func TestLUSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(40)
		b := randSPD(n, rng)
		a := b.ToCSC()
		f, err := Factorize(a)
		if err != nil {
			t.Fatalf("trial %d (n=%d): %v", trial, n, err)
		}
		if f.Order() != n {
			t.Fatalf("Order = %d, want %d", f.Order(), n)
		}
		df, err := linalg.Factorize(denseOf(a))
		if err != nil {
			t.Fatal(err)
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		got, err := f.Solve(rhs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := df.Solve(rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d n=%d: x[%d] = %v, want %v", trial, n, i, got[i], want[i])
			}
		}
		// Residual check: A x must reproduce b.
		ax, err := a.MulVec(got)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rhs {
			if math.Abs(ax[i]-rhs[i]) > 1e-8 {
				t.Fatalf("trial %d: residual[%d] = %v", trial, i, ax[i]-rhs[i])
			}
		}
	}
}

func TestLUGeneralUnsymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(25)
		b := NewBuilder(n, n)
		// Random pattern plus a guaranteed nonzero somewhere in every row and
		// column (permutation backbone) so the matrix is usually nonsingular.
		p := rng.Perm(n)
		for i := 0; i < n; i++ {
			b.Add(i, p[i], 1+rng.Float64())
		}
		for k := 0; k < 2*n; k++ {
			b.Add(rng.Intn(n), rng.Intn(n), rng.NormFloat64())
		}
		a := b.ToCSC()
		f, err := Factorize(a)
		df, derr := linalg.Factorize(denseOf(a))
		if (err != nil) != (derr != nil) {
			t.Fatalf("trial %d: sparse err=%v, dense err=%v", trial, err, derr)
		}
		if err != nil {
			continue
		}
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = rng.NormFloat64()
		}
		got, err := f.Solve(rhs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := df.Solve(rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Fatalf("trial %d n=%d: x[%d] = %v, want %v", trial, n, i, got[i], want[i])
			}
		}
	}
}

func TestLUSingular(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2)
	b.Add(1, 0, 2)
	b.Add(1, 1, 4) // row 1 = 2 * row 0
	b.Add(2, 2, 1)
	if _, err := Factorize(b.ToCSC()); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
	// Empty column.
	b2 := NewBuilder(2, 2)
	b2.Add(0, 0, 1)
	if _, err := Factorize(b2.ToCSC()); !errors.Is(err, ErrSingular) {
		t.Fatalf("empty-column err = %v, want ErrSingular", err)
	}
	// 0x0 matrix.
	if _, err := Factorize(NewBuilder(0, 0).ToCSC()); !errors.Is(err, ErrSingular) {
		t.Fatalf("0x0 err = %v, want ErrSingular", err)
	}
	// Non-square.
	if _, err := Factorize(NewBuilder(2, 3).ToCSC()); !errors.Is(err, ErrDimension) {
		t.Fatalf("non-square err = %v, want ErrDimension", err)
	}
}

func TestMinDegreeReducesFill(t *testing.T) {
	rng := rand.New(rand.NewSource(118))
	n := 200
	a := randSPD(n, rng).ToCSC()
	fOrd, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	fNat, err := FactorizeNatural(a)
	if err != nil {
		t.Fatal(err)
	}
	lo, uo := fOrd.NNZFactors()
	ln, un := fNat.NNZFactors()
	t.Logf("ordered fill: L+U = %d, natural: %d (A nnz = %d)", lo+uo, ln+un, a.NNZ())
	if lo+uo > ln+un {
		t.Errorf("min-degree ordering increased fill: %d > %d", lo+uo, ln+un)
	}
	// Both must still solve correctly.
	rhs := make([]float64, n)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	x1, err := fOrd.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := fNat.Solve(rhs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if math.Abs(x1[i]-x2[i]) > 1e-7*(1+math.Abs(x1[i])) {
			t.Fatalf("ordered vs natural solve differ at %d: %v vs %v", i, x1[i], x2[i])
		}
	}
}

func TestFactorizationInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randSPD(10, rng).ToCSC()
	var f linalg.Factorization
	sf, err := Factorize(a)
	if err != nil {
		t.Fatal(err)
	}
	f = sf
	if f.Order() != 10 {
		t.Fatalf("Order = %d", f.Order())
	}
	df, err := linalg.Factorize(denseOf(a))
	if err != nil {
		t.Fatal(err)
	}
	f = df
	if f.Order() != 10 {
		t.Fatalf("dense Order = %d", f.Order())
	}
}

// TestSolveIntoMatchesSolve: the buffered solve returns Solve's bits,
// also solving in place (x aliasing b), and allocates nothing.
func TestSolveIntoMatchesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f, err := Factorize(randSPD(40, rng).ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 40)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	x, work := make([]float64, 40), make([]float64, 40)
	inPlace := append([]float64(nil), b...)
	for name, run := range map[string]func() error{
		"separate": func() error { return f.SolveInto(x, work, b) },
		"in place": func() error { copy(x, inPlace); return f.SolveInto(x, work, x) },
	} {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range want {
			if math.Float64bits(x[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: x[%d] = %v, Solve gave %v", name, i, x[i], want[i])
			}
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = run() }); allocs != 0 {
			t.Errorf("%s: SolveInto allocates %v times per call, want 0", name, allocs)
		}
	}
	if err := f.SolveInto(x, work[:39], b); !errors.Is(err, ErrDimension) {
		t.Fatalf("short work buffer: err = %v, want ErrDimension", err)
	}
}

func TestSolveDimensionMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f, err := Factorize(randSPD(5, rng).ToCSC())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve(make([]float64, 4)); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
	m := randSPD(5, rng).ToCSC()
	if _, err := m.MulVec(make([]float64, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("MulVec err = %v, want ErrDimension", err)
	}
}
