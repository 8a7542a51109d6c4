package difftest

import (
	"fmt"
	"math"
	"math/rand"

	"gridattack/internal/linalg"
	"gridattack/internal/linalg/sparse"
)

// The sparse lane checks the two sides of grid.FactorizeB, the one place
// that still switches between a dense and a sparse factorization: the
// susceptance matrix must assemble identically in both formats, and both
// LUs must solve the same injections. Generated systems sit below the
// switch's threshold, so FactorizeB itself would always pick the dense LU;
// the lane factorizes both explicitly, which keeps the sparse LU exercised
// on every generated topology.

// checkSparse compares the dense and sparse B assembly and factorization.
// Empty return means agreement.
func checkSparse(sys *System, _ *rand.Rand) string {
	g := sys.Grid
	t := g.TrueTopology()

	// Susceptance assembly must agree entry for entry (bit-identical: the
	// stable builder sums duplicates in stamping order).
	dense := g.BMatrix(t)
	sp := g.BSparse(t)
	for i := 0; i < dense.Rows(); i++ {
		for j := 0; j < dense.Cols(); j++ {
			if sp.At(i, j) != dense.At(i, j) {
				return fmt.Sprintf("B[%d][%d]: sparse %v != dense %v", i, j, sp.At(i, j), dense.At(i, j))
			}
		}
	}

	fd, errD := linalg.Factorize(dense)
	fs, errS := sparse.Factorize(sp)
	if (errD == nil) != (errS == nil) {
		return fmt.Sprintf("B factorization error class: dense %v sparse %v", errD, errS)
	}
	if errD != nil {
		return ""
	}

	// Right-hand sides: the power flow's injections and every line's
	// transfer vector e_from - e_to, the solves DC power flow and the
	// distribution factors issue.
	ri := make(map[int]int, g.NumBuses())
	for _, bus := range g.Buses {
		if bus.ID != g.RefBus {
			ri[bus.ID] = len(ri)
		}
	}
	var rhss [][]float64
	if dispatch := proportionalDispatch(g); dispatch != nil {
		pf, err := g.SolvePowerFlow(t, dispatch)
		if err != nil {
			return fmt.Sprintf("power flow: %v", err)
		}
		inj := make([]float64, len(ri))
		for bus, k := range ri {
			inj[k] = pf.Injection[bus-1]
		}
		rhss = append(rhss, inj)
	}
	for _, id := range t.Lines() {
		ln := g.Lines[id-1]
		rhs := make([]float64, len(ri))
		if k, ok := ri[ln.From]; ok {
			rhs[k]++
		}
		if k, ok := ri[ln.To]; ok {
			rhs[k]--
		}
		rhss = append(rhss, rhs)
	}
	for r, rhs := range rhss {
		xd, errD := fd.Solve(rhs)
		xs, errS := fs.Solve(rhs)
		if errD != nil || errS != nil {
			return fmt.Sprintf("B solve %d: dense %v sparse %v", r, errD, errS)
		}
		for i := range xd {
			if math.Abs(xd[i]-xs[i]) > 1e-8 {
				return fmt.Sprintf("B solve %d, x[%d]: dense %v sparse %v", r, i, xd[i], xs[i])
			}
		}
	}
	return ""
}
