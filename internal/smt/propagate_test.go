package smt

import "testing"

// TestDeriveRowBoundsAllocatesNothing: once its scratch has grown, deriving
// a row's implied bounds reuses the solver's storage instead of allocating a
// rowBounds and its premise slices on every propagation round. That holds
// for a certifying solver too: it records the premises' row positions, and
// propagateLit builds Farkas multipliers only for the bound it uses.
func TestDeriveRowBoundsAllocatesNothing(t *testing.T) {
	for _, certify := range []bool{false, true} {
		s := NewSolver()
		s.Certify, s.selfCheck = certify, certify
		x, y, z := s.NewReal("x"), s.NewReal("y"), s.NewReal("z")
		for _, v := range []int{x, y, z} {
			s.Assert(AtomFloat(NewLinExpr().AddInt(1, v), OpGE, 0))
			s.Assert(AtomFloat(NewLinExpr().AddInt(1, v), OpLE, 3))
		}
		sum := NewLinExpr().AddInt(1, x).AddInt(2, y).AddInt(-1, z)
		s.Assert(Or(Bool(s.NewBool("b")), AtomFloat(sum, OpLE, 4)))
		if res := mustCheck(t, s); res != Sat {
			t.Fatalf("certify=%t: res = %v, want sat", certify, res)
		}
		slack := -1
		for _, v := range s.atomSlacks {
			if s.simp.basic[v] {
				slack = v
			}
		}
		if slack < 0 {
			t.Fatalf("certify=%t: no basic atom slack", certify)
		}
		rb := s.deriveRowBounds(slack)
		if !rb.loOK || len(rb.loLits) != 3 {
			t.Fatalf("certify=%t: lower row bound not derived from all three columns: %+v", certify, rb)
		}
		if certify && len(rb.loPos) != 3 {
			t.Fatalf("certifying solver kept %d premise positions, want 3", len(rb.loPos))
		}
		if allocs := testing.AllocsPerRun(100, func() { s.deriveRowBounds(slack) }); allocs != 0 {
			t.Errorf("certify=%t: deriveRowBounds allocates %v times per call, want 0", certify, allocs)
		}
	}
}
