package smt

import (
	"sync/atomic"
)

const (
	varDecay      = 0.95
	activityLimit = 1e100
	lubyUnit      = 256 // conflicts per Luby restart unit
)

// cref is a clause's offset in satCore.arena; 0 means no clause.
type cref uint32

// A clause is stored in the arena as a header word, its length shifted left
// by one with the low bit set for learned clauses, followed by its literals.
// Watch lists, reasons and the clause list hold offsets into the arena, so a
// watch visit reads the header and the literals from one contiguous run
// (the layout of MiniSat's region allocator).
const learnedBit = 1

// value of an assigned variable.
type assignVal int8

const (
	unassigned assignVal = 0
	assignTrue assignVal = 1
	assignFals assignVal = -1
)

type satCore struct {
	numVars  int
	arena    []literal // arena[0] is unused, so cref 0 names no clause
	clauses  []cref
	watches  [][]cref // indexed by literal
	assign   []assignVal
	level    []int
	reason   []cref
	trail    []literal
	trailLim []int
	qhead    int

	activity []float64
	varInc   float64
	phase    []bool

	// Activity-ordered max-heap of candidate decision variables (lazy
	// deletion: entries may be assigned; skipped at pop time).
	heap    []int
	heapPos []int // position in heap, -1 when absent

	unsatisfiable bool

	// stop, when non-nil and set, halts long propagate() runs at the next
	// trail-item poll (installed by Solver.SetInterrupt). interrupted records
	// that propagate stopped early: the propagation queue (qhead) still holds
	// unprocessed literals, so the caller must not treat the partial fixpoint
	// as complete.
	stop        *atomic.Bool
	interrupted bool

	// Statistics.
	decisions, conflicts, propagations int64

	// Scratch buffers reused across calls: addBuf backs addClause's dedup pass, learntBuf the clause
	// analyze returns, seenBuf the conflict analysis marks (all-false
	// between analyze calls by invariant).
	addBuf    []literal
	learntBuf []literal
	seenBuf   []bool
}

func newSATCore() *satCore {
	return &satCore{varInc: 1, arena: []literal{0}}
}

func (c *satCore) newVar() int {
	v := c.numVars
	c.numVars++
	c.assign = append(c.assign, unassigned)
	c.level = append(c.level, 0)
	c.reason = append(c.reason, 0)
	c.activity = append(c.activity, 0)
	c.phase = append(c.phase, false)
	c.watches = append(c.watches, nil, nil)
	c.heapPos = append(c.heapPos, -1)
	c.heapInsert(v)
	return v
}

// heapInsert pushes v into the decision heap if absent.
func (c *satCore) heapInsert(v int) {
	if c.heapPos[v] >= 0 {
		return
	}
	c.heap = append(c.heap, v)
	c.heapPos[v] = len(c.heap) - 1
	c.siftUp(len(c.heap) - 1)
}

func (c *satCore) heapLess(i, j int) bool {
	return c.activity[c.heap[i]] > c.activity[c.heap[j]]
}

func (c *satCore) heapSwap(i, j int) {
	c.heap[i], c.heap[j] = c.heap[j], c.heap[i]
	c.heapPos[c.heap[i]] = i
	c.heapPos[c.heap[j]] = j
}

func (c *satCore) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.heapLess(i, parent) {
			return
		}
		c.heapSwap(i, parent)
		i = parent
	}
}

func (c *satCore) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < len(c.heap) && c.heapLess(l, best) {
			best = l
		}
		if r < len(c.heap) && c.heapLess(r, best) {
			best = r
		}
		if best == i {
			return
		}
		c.heapSwap(i, best)
		i = best
	}
}

// heapPop removes and returns the highest-activity entry, or -1 when empty.
func (c *satCore) heapPop() int {
	if len(c.heap) == 0 {
		return -1
	}
	v := c.heap[0]
	last := len(c.heap) - 1
	c.heapSwap(0, last)
	c.heap = c.heap[:last]
	c.heapPos[v] = -1
	if last > 0 {
		c.siftDown(0)
	}
	return v
}

func (c *satCore) decisionLevel() int { return len(c.trailLim) }

// litValue returns the truth value of a literal under the current assignment.
func (c *satCore) litValue(l literal) assignVal {
	v := c.assign[l.variable()]
	if v == unassigned {
		return unassigned
	}
	if l.negated() {
		return -v
	}
	return v
}

// addClause installs a clause, handling empty/unit/duplicate-literal cases.
// Must be called at decision level 0.
func (c *satCore) addClause(lits []literal) {
	// Deduplicate and drop tautologies. Clauses are short (Tseitin and
	// cardinality encodings emit 2-4 literals), so a quadratic scan beats a
	// per-clause map allocation, and the scratch buffer is reused across
	// calls (only the final clause storage is retained).
	out := c.addBuf[:0]
	defer func() { c.addBuf = out[:0] }()
	for _, l := range lits {
		dup := false
		for _, o := range out {
			if o == l.not() {
				return // tautology: l and not(l) both present
			}
			if o == l {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	// Drop literals already false at level 0 and detect satisfied clauses.
	filtered := out[:0]
	for _, l := range out {
		switch c.litValue(l) {
		case assignTrue:
			if c.level[l.variable()] == 0 {
				return // satisfied forever
			}
			filtered = append(filtered, l)
		case assignFals:
			if c.level[l.variable()] == 0 {
				continue // false forever
			}
			filtered = append(filtered, l)
		default:
			filtered = append(filtered, l)
		}
	}
	switch len(filtered) {
	case 0:
		c.unsatisfiable = true
	case 1:
		if !c.enqueue(filtered[0], 0) {
			c.unsatisfiable = true
		}
	default:
		c.store(filtered, false)
	}
}

// store copies a clause of at least two literals into the arena, adds it to
// the clause list and watches its first two literals.
func (c *satCore) store(lits []literal, learned bool) cref {
	cr := c.alloc(len(lits), learned)
	copy(c.arena[cr+1:], lits)
	c.attach(cr)
	return cr
}

// alloc reserves an n-literal clause at the end of the arena and adds it to
// the clause list; the caller fills its literals and attaches it.
func (c *satCore) alloc(n int, learned bool) cref {
	if uint64(len(c.arena))+uint64(n)+1 >= 1<<32 {
		panic("smt: clause arena exceeds 2^32-1 literals") // a clause's end must fit in a cref
	}
	cr := cref(len(c.arena))
	hdr := literal(n << 1)
	if learned {
		hdr |= learnedBit
	}
	c.arena = append(c.arena, hdr)
	c.arena = append(c.arena, make([]literal, n)...)
	c.clauses = append(c.clauses, cr)
	return cr
}

// lits returns the literals of clause cr, aliasing the arena: the slice is
// valid until the next alloc.
func (c *satCore) lits(cr cref) []literal {
	n := cref(c.arena[cr] >> 1)
	return c.arena[cr+1 : cr+1+n : cr+1+n]
}

func (c *satCore) attach(cr cref) {
	lits := c.lits(cr)
	c.watches[lits[0].not()] = append(c.watches[lits[0].not()], cr)
	c.watches[lits[1].not()] = append(c.watches[lits[1].not()], cr)
}

// enqueue records that literal l is implied (reason 0 for decisions and
// level-0 facts). It returns false when l is already false.
func (c *satCore) enqueue(l literal, from cref) bool {
	switch c.litValue(l) {
	case assignTrue:
		return true
	case assignFals:
		return false
	}
	v := l.variable()
	if l.negated() {
		c.assign[v] = assignFals
	} else {
		c.assign[v] = assignTrue
	}
	c.level[v] = c.decisionLevel()
	c.reason[v] = from
	c.phase[v] = !l.negated()
	c.trail = append(c.trail, l)
	return true
}

// propagate runs unit propagation to fixpoint. It returns the conflicting
// clause, or 0.
func (c *satCore) propagate() cref {
	arena := c.arena // propagate allocates no clause
	for c.qhead < len(c.trail) {
		if c.stop != nil && c.propagations&1023 == 0 && c.stop.Load() {
			// Poll only between trail items: the watch lists are intact here,
			// and the queue resumes from qhead on the next call.
			c.interrupted = true
			return 0
		}
		p := c.trail[c.qhead] // p is true; clauses watching not(p) may become unit
		c.qhead++
		c.propagations++
		// Compact the watch list in place: kept watchers slide to the front
		// (write index j), clauses that found a new watch are moved to the
		// other list. The backing array is reused across propagations —
		// rebuilding it with append-to-nil was the solver's single largest
		// allocation source.
		ws := c.watches[p]
		j := 0
		for wi := 0; wi < len(ws); wi++ {
			cr := ws[wi]
			n := cref(arena[cr] >> 1)
			lits := arena[cr+1 : cr+1+n : cr+1+n]
			// Ensure lits[1] is the false literal (== not(p)).
			if lits[0] == p.not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if c.litValue(lits[0]) == assignTrue {
				ws[j] = cr
				j++
				continue
			}
			// Look for a new literal to watch.
			found := false
			for k := 2; k < len(lits); k++ {
				if c.litValue(lits[k]) != assignFals {
					lits[1], lits[k] = lits[k], lits[1]
					// The new watch is non-false and not(p) is false, so the
					// target list is never this one — in-place j is safe.
					c.watches[lits[1].not()] = append(c.watches[lits[1].not()], cr)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			ws[j] = cr
			j++
			if !c.enqueue(lits[0], cr) {
				// Conflict: keep the unvisited tail and report.
				j += copy(ws[j:], ws[wi+1:])
				c.watches[p] = ws[:j]
				c.qhead = len(c.trail)
				return cr
			}
		}
		c.watches[p] = ws[:j]
	}
	return 0
}

// analyze performs 1UIP conflict analysis. The conflicting clause's literals
// must all be false, with at least one at the current decision level. It
// returns the learned clause (asserting literal first), valid until the next
// analyze, and the backjump level.
func (c *satCore) analyze(confl []literal) ([]literal, int) {
	if len(c.seenBuf) < c.numVars {
		c.seenBuf = make([]bool, c.numVars)
	}
	seen := c.seenBuf                    // all false on entry; cleared again before returning
	learnt := append(c.learntBuf[:0], 0) // placeholder for the asserting literal
	counter := 0
	idx := len(c.trail) - 1
	var p literal
	reasonLits := confl

	for {
		for _, q := range reasonLits {
			v := q.variable()
			if seen[v] || c.level[v] == 0 {
				continue
			}
			seen[v] = true
			c.bumpActivity(v)
			if c.level[v] == c.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next marked literal on the trail.
		for !seen[c.trail[idx].variable()] {
			idx--
		}
		p = c.trail[idx]
		idx--
		seen[p.variable()] = false
		counter--
		if counter == 0 {
			break
		}
		// Skip the first literal of the reason (it is p itself).
		reasonLits = c.lits(c.reason[p.variable()])[1:]
	}
	learnt[0] = p.not()
	// Restore the all-false invariant: the only marks still set belong to
	// the non-UIP learned literals (every current-level mark was cleared as
	// it was popped off the trail).
	for i := 1; i < len(learnt); i++ {
		seen[learnt[i].variable()] = false
	}

	// Backjump level: highest level among the other literals.
	bt := 0
	for i := 1; i < len(learnt); i++ {
		if l := c.level[learnt[i].variable()]; l > bt {
			bt = l
		}
	}
	// Move a literal of the backjump level to position 1 (watch invariant).
	for i := 1; i < len(learnt); i++ {
		if c.level[learnt[i].variable()] == bt {
			learnt[1], learnt[i] = learnt[i], learnt[1]
			break
		}
	}
	c.learntBuf = learnt
	return learnt, bt
}

func (c *satCore) bumpActivity(v int) {
	c.activity[v] += c.varInc
	if c.activity[v] > activityLimit {
		// Rescaling divides every activity by the same factor, preserving
		// the heap order.
		for i := range c.activity {
			c.activity[i] /= activityLimit
		}
		c.varInc /= activityLimit
	}
	if c.heapPos[v] >= 0 {
		c.siftUp(c.heapPos[v])
	}
}

func (c *satCore) decayActivity() {
	c.varInc /= varDecay
}

// cancelUntil undoes all assignments above the given decision level.
func (c *satCore) cancelUntil(level int) {
	if c.decisionLevel() <= level {
		return
	}
	lim := c.trailLim[level]
	for i := len(c.trail) - 1; i >= lim; i-- {
		v := c.trail[i].variable()
		c.assign[v] = unassigned
		c.reason[v] = 0
		c.heapInsert(v)
	}
	c.trail = c.trail[:lim]
	c.trailLim = c.trailLim[:level]
	c.qhead = len(c.trail)
}

// pickBranchVar returns the unassigned variable with the highest activity,
// or -1 when all variables are assigned.
func (c *satCore) pickBranchVar() int {
	for {
		v := c.heapPop()
		if v < 0 || c.assign[v] == unassigned {
			return v
		}
	}
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
func luby(i int) int64 {
	for k := uint(1); ; k++ {
		if i == (1<<k)-1 {
			return 1 << (k - 1)
		}
		if i < (1<<k)-1 {
			return luby(i - (1 << (k - 1)) + 1)
		}
	}
}
