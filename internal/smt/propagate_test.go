package smt

import "testing"

// TestDeriveRowBoundsAllocatesNothing: once its scratch has grown, deriving
// a row's implied bounds reuses the solver's storage instead of allocating a
// rowBounds and its premise slices on every propagation round. The solver
// does not certify: a certifying one allocates each premise's Farkas
// multiplier, which the proof keeps.
func TestDeriveRowBoundsAllocatesNothing(t *testing.T) {
	s := NewSolver()
	s.Certify, s.selfCheck = false, false
	x, y, z := s.NewReal("x"), s.NewReal("y"), s.NewReal("z")
	for _, v := range []int{x, y, z} {
		s.Assert(AtomFloat(NewLinExpr().AddInt(1, v), OpGE, 0))
		s.Assert(AtomFloat(NewLinExpr().AddInt(1, v), OpLE, 3))
	}
	sum := NewLinExpr().AddInt(1, x).AddInt(2, y).AddInt(-1, z)
	s.Assert(Or(Bool(s.NewBool("b")), AtomFloat(sum, OpLE, 4)))
	if res := mustCheck(t, s); res != Sat {
		t.Fatalf("res = %v, want sat", res)
	}
	slack := -1
	for _, v := range s.atomSlacks {
		if s.simp.basic[v] {
			slack = v
		}
	}
	if slack < 0 {
		t.Fatal("no basic atom slack")
	}
	rb := s.deriveRowBounds(slack)
	if !rb.loOK || len(rb.loLits) != 3 {
		t.Fatalf("lower row bound not derived from all three columns: %+v", rb)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.deriveRowBounds(slack) }); allocs != 0 {
		t.Fatalf("deriveRowBounds allocates %v times per call, want 0", allocs)
	}
}
