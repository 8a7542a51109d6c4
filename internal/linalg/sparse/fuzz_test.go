package sparse

import (
	"math"
	"testing"

	"gridattack/internal/linalg"
)

// FuzzCSC decodes arbitrary bytes into a small coordinate-form matrix
// (duplicates, empty rows/columns, and singular patterns all arise
// naturally), builds CSC/CSR, and cross-checks construction, MulVec, and LU
// solves against the dense oracle, and the compression against the
// stable-sort reference.
func FuzzCSC(f *testing.F) {
	// Seed corpus: identity, duplicate entries, empty row/col, singular B,
	// negative off-diagonals like a susceptance matrix.
	seed := func(n byte, coords ...byte) []byte {
		return append([]byte{n}, coords...)
	}
	f.Add(seed(1, 0, 0, 100))                                           // 1x1
	f.Add(seed(2, 0, 0, 120, 1, 1, 120))                                // diagonal
	f.Add(seed(2, 0, 0, 100, 0, 0, 100, 1, 1, 90))                      // duplicate summed
	f.Add(seed(3, 0, 0, 110, 1, 1, 110))                                // empty row/col 2: singular
	f.Add(seed(2, 0, 0, 110, 0, 1, 110, 1, 0, 110, 1, 1, 110))          // rank 1: singular
	f.Add(seed(3, 0, 0, 200, 0, 1, 28, 1, 0, 28, 1, 1, 200, 2, 2, 150)) // B-like
	f.Add(seed(4, 0, 0, 128, 0, 0, 129))                                // duplicates cancelling to ~0
	f.Add([]byte{})                                                     // empty input

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%8) + 1
		data = data[1:]
		b := NewBuilder(n, n)
		d := linalg.NewMatrix(n, n)
		// nd stamps the same pattern with non-dyadic values, whose sums
		// depend on summation order (byte 128 stamps -0), for the
		// comparison with the stable-sort reference compression.
		nd := NewBuilder(n, n)
		for len(data) >= 3 {
			i := int(data[0]) % n
			j := int(data[1]) % n
			v := (float64(data[2]) - 128) / 16
			b.Add(i, j, v)
			d.Set(i, j, d.At(i, j)+v)
			nd.Add(i, j, -(float64(data[2])-128)/10)
			data = data[3:]
		}
		checkMatchesReference(t, b)
		checkMatchesReference(t, nd)
		csc := b.ToCSC()
		csr := b.ToCSR()

		// Construction: every entry matches the dense accumulation, and the
		// stored structure is well formed (sorted, in-range, no explicit zeros).
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got, want := csc.At(i, j), d.At(i, j); got != want {
					t.Fatalf("CSC At(%d,%d) = %v, want %v", i, j, got, want)
				}
			}
		}
		if csc.NNZ() != csr.NNZ() {
			t.Fatalf("CSC nnz %d != CSR nnz %d", csc.NNZ(), csr.NNZ())
		}
		for j := 0; j < n; j++ {
			prev := -1
			csc.Col(j, func(i int, v float64) {
				if i <= prev {
					t.Fatalf("column %d rows not strictly increasing", j)
				}
				if v == 0 {
					t.Fatalf("explicit zero stored at (%d,%d)", i, j)
				}
				prev = i
			})
		}

		// MulVec agreement.
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i%5) - 2
		}
		want, _ := d.MulVec(v)
		got, err := csc.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		gotR, err := csr.MulVec(v)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 || math.Abs(gotR[i]-want[i]) > 1e-9 {
				t.Fatalf("MulVec[%d]: csc %v csr %v dense %v", i, got[i], gotR[i], want[i])
			}
		}

		// Factorization: sparse and dense must agree on solvability; when
		// both succeed, solutions must match. Near the singularity tolerance
		// the two pivoting orders may disagree — only flag cases where the
		// successful side produces a genuinely accurate solve.
		sf, serr := Factorize(csc)
		df, derr := linalg.Factorize(d)
		rhs := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64((i % 3) - 1)
		}
		check := func(x []float64) float64 {
			ax, _ := csc.MulVec(x)
			worst := 0.0
			for i := range ax {
				if r := math.Abs(ax[i] - rhs[i]); r > worst {
					worst = r
				}
			}
			return worst
		}
		switch {
		case serr == nil && derr == nil:
			xs, err := sf.Solve(rhs)
			if err != nil {
				t.Fatal(err)
			}
			xd, err := df.Solve(rhs)
			if err != nil {
				t.Fatal(err)
			}
			// Compare through the residual rather than componentwise: for
			// ill-conditioned fuzz matrices the solutions may differ while
			// both being valid.
			if rs, rd := check(xs), check(xd); rs > 1e-5 && rs > 100*rd+1e-5 {
				t.Fatalf("sparse residual %v far worse than dense %v", rs, rd)
			}
		case serr != nil && derr == nil:
			if xd, err := df.Solve(rhs); err == nil && check(xd) < 1e-9 {
				t.Fatalf("sparse says singular (%v) but dense solves accurately", serr)
			}
		case serr == nil && derr != nil:
			if xs, err := sf.Solve(rhs); err == nil && check(xs) < 1e-9 {
				t.Logf("dense says singular (%v) but sparse solves accurately", derr)
			}
		}
	})
}
