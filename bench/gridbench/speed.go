package main

import (
	"crypto/sha256"
	"math/big"
	"sort"
	"sync"
	"time"
)

// Machine-speed normalization.
//
// The benchmark runs on shared machines whose speed drifts by 20-60% over
// minutes as other tenants come and go, far more than the regressions the
// bounds in BENCHMARK.json must catch. Every run therefore also times a
// fixed reference kernel, before each set-up and between operations (at
// least every kernelEvery where the workload can pause; serve-mix only
// between its phases), that uses only the standard library: exact rational
// arithmetic, a dense float matrix product, map and slice growth with
// sorting and hashing, and random reads and writes over a few MB, the kinds
// of work the solver, the LP and the estimator do. The speed factor is
// refKernelMS / (the kernel's median time in the run). Set-up times are
// scaled by it: they read as the times the run would have taken on a
// machine where the kernel takes refKernelMS. The kernel calls no
// repository code, so a change to the program cannot move it.
//
// Operation times are scaled by factor^elasticity, a control variate in log
// space: elasticity is the slope of the workload's log time against the
// kernel's log time, measured on the reference machine. The compute-bound
// workloads follow the kernel fully (1). serve-mix follows it about half
// (0.5): a query at 100 q/s spends much of its latency waking goroutines and
// crossing the loopback, which other tenants slow far less than compute;
// scaling it fully doubled its run-to-run spread, and scaling by the square
// root cut it to a third. The run record keeps factor and elasticity, so
// raw times can be recovered.

// refKernelMS is the kernel's median time on the reference machine (the
// 2-vCPU Xeon the bounds were calibrated on).
const refKernelMS = 7.0

// kernelEvery is the most workload time that passes between two kernel
// timings; with kernelBurst the kernel costs about 3% of a run.
const kernelEvery = time.Second

// kernelBurst kernels run back to back at each timing point; the first only
// warms the caches the workload left cold and is not recorded.
const kernelBurst = 3

// kernelWords sizes the random-access part's working set (4 MB).
const kernelWords = 1 << 19

// referenceKernel runs one kernel over mem, a working set of kernelWords,
// and returns its results so that none of the work can be optimized away.
func referenceKernel(mem []int64) any {
	r := new(big.Rat).SetInt64(1)
	for i := int64(1); i < 400; i++ {
		r.Add(r, big.NewRat(i, i+7))
		r.Mul(r, big.NewRat(i+3, i+2))
	}
	const n = 100
	a := make([]float64, n*n)
	for i := range a {
		a[i] = float64(i%7) + 1
	}
	c := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				c[i*n+j] += a[i*n+k] * a[k*n+j]
			}
		}
	}
	m := map[int][]int{}
	xs := make([]int, 0, 20000)
	for i := 0; i < 20000; i++ {
		m[i%997] = append(m[i%997], i)
		xs = append(xs, (i*7919)%20011)
	}
	sort.Ints(xs)
	h := sha256.Sum256(make([]byte, 1<<16))
	idx, sum := int64(1), int64(0)
	for i := 0; i < 200000; i++ {
		idx = (idx*1103515245 + 12345) & (kernelWords - 1)
		sum += mem[idx]
		mem[idx] = sum
	}
	return []any{r, c, m, xs, h, sum}
}

// speedProbe collects reference-kernel timings over a run, and the heap
// bytes the kernel allocated, which allocMeter leaves out.
type speedProbe struct {
	// width is how many kernels run at once in one timing: the number of
	// CPUs the workload keeps busy, so that losing one of them to another
	// tenant slows the kernel as it slows the workload.
	width      int
	mem        [][]int64 // one working set per concurrent kernel
	sink       []any
	samples    []float64
	allocBytes uint64
	last       time.Time
}

// sample times n rounds of width concurrent kernels and records all but
// the first round.
func (p *speedProbe) sample(n int) {
	if p.mem == nil {
		p.mem = make([][]int64, p.width)
		for j := range p.mem {
			p.mem[j] = make([]int64, kernelWords)
		}
		p.sink = make([]any, p.width)
	}
	before := totalAlloc()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		var wg sync.WaitGroup
		for j := 0; j < p.width; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.sink[j] = referenceKernel(p.mem[j])
			}()
		}
		wg.Wait()
		if i > 0 {
			p.samples = append(p.samples, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	p.allocBytes += totalAlloc() - before
	p.last = time.Now()
}

// tick takes a burst of kernel timings if kernelEvery has passed since the
// last; workloads call it between operations.
func (p *speedProbe) tick() {
	if time.Since(p.last) >= kernelEvery {
		p.sample(kernelBurst)
	}
}

// factor is the scale from this run's times to reference-machine times.
func (p *speedProbe) factor() float64 {
	if len(p.samples) == 0 {
		return 1
	}
	return refKernelMS / median(p.samples)
}
