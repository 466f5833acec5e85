package main

import (
	"runtime"
	"sync"
	"time"
)

// The reference kernel is a frozen naive matrix multiply that calls no repo
// code, so no change to the program can speed it up. Timing it between
// detection windows gives a same-run measure of how fast the host is right
// now; dividing window latency by it cancels part of the drift a shared
// host shows from one minute to the next.
//
// It runs one copy per GOMAXPROCS thread at once and for about a quarter
// of a second, because CORRECT keeps both cores of the reference host busy
// for seconds (the X and Y axes run concurrently over parallel row-block
// kernels). A short single-threaded burst does not see what slows such a
// load down: on the reference host its speed is bimodal, and it does not
// follow the half-minute drifts of detection time, while a sustained
// two-thread sample does, in part.
const (
	refDim  = 96  // small enough to stay in L2, like CORRECT's 60×120 factors
	refReps = 160 // multiplies per sample per thread, about 250 ms
)

// refKernel holds one operand set per thread.
type refKernel struct {
	a, b, c [][]float64
}

func newRefKernel() *refKernel {
	k := &refKernel{}
	for t := 0; t < runtime.GOMAXPROCS(0); t++ {
		a := make([]float64, refDim*refDim)
		b := make([]float64, refDim*refDim)
		for i := range a {
			// Fixed, non-trivial operands: the kernel must do the same
			// arithmetic on every host and every run.
			a[i] = float64(i%17) * 0.25
			b[i] = float64(i%13) * 0.5
		}
		k.a = append(k.a, a)
		k.b = append(k.b, b)
		k.c = append(k.c, make([]float64, refDim*refDim))
	}
	return k
}

// sample runs the kernel once on every thread and returns the wall time.
func (k *refKernel) sample() time.Duration {
	var wg sync.WaitGroup
	began := time.Now()
	for t := range k.a {
		wg.Add(1)
		go func(a, b, c []float64) {
			defer wg.Done()
			for r := 0; r < refReps; r++ {
				naiveMul(a, b, c, refDim)
			}
		}(k.a[t], k.b[t], k.c[t])
	}
	wg.Wait()
	return time.Since(began)
}

// samples times n kernel runs and returns them in milliseconds.
func (k *refKernel) samples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(k.sample()) / float64(time.Millisecond)
	}
	return out
}

// naiveMul is c = a·b for n×n row-major matrices, i-j-k order on purpose.
func naiveMul(a, b, c []float64, n int) {
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = s
		}
	}
}
