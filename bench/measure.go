package main

import (
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of vs (mean of the two middle values
// for an even count). It does not modify vs.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rusage is what the kernel has billed this process so far. The call
// cannot fail with these arguments.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is what one measured region consumed, as the clocks read.
type cost struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64 // MemStats.TotalAlloc delta, bytes
	mallocs uint64 // MemStats.Mallocs delta, objects
}

// measure runs f between two readings of the wall clock, the process
// CPU clock and the allocator totals.
func measure(f func() error) (cost, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, t0 := cpuTime(), time.Now()
	err := f()
	c := cost{wall: time.Since(t0), cpu: cpuTime() - c0}
	runtime.ReadMemStats(&m1)
	c.alloc, c.mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	return c, err
}

// peakRSSMB is the process's peak resident set so far (Linux reports
// kilobytes).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1e3 }

// sink defeats dead-code elimination in the micro-timings.
var sink any

// timeOp returns the median nanoseconds per call of f over five batches.
// The batch size is calibrated so that one batch lasts about 2 ms: long
// enough to swamp the clock, short enough that seventy operations fit in
// a traced run.
func timeOp(f func()) float64 {
	f() // warm caches and lazy tables
	t0 := time.Now()
	f()
	one := time.Since(t0)
	batch := 1
	if one < 2*time.Millisecond {
		batch = min(int(2*time.Millisecond/(one+1)), 1<<20)
	}
	per := make([]float64, 5)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f()
		}
		per[b] = float64(time.Since(t0)) / float64(batch)
	}
	return median(per)
}

var calibBase, calibExp, calibMod = func() (*big.Int, *big.Int, *big.Int) {
	rng := rand.New(rand.NewSource(2048))
	b, e, m := randBits(rng, 2048), randBits(rng, 2048), randBits(rng, 2048)
	return b, e, m.SetBit(m, 0, 1)
}()

func randBits(rng *rand.Rand, bits int) *big.Int {
	b := make([]byte, (bits+7)/8)
	rng.Read(b)
	v := new(big.Int).SetBytes(b)
	return v.SetBit(v, bits-1, 1)
}

// modexpNS is the machine calibration unit every record carries so that
// hosts compare: one 2048-bit big.Int.Exp on fixed operands, the median
// of nine. It calls nothing of the program, so no change to the program
// moves it.
//
// The end-to-end times are NOT scaled by it. That was tried (one reading
// after every repetition, times multiplied by reference ÷ median reading)
// and made things worse: over ten runs of crypto-dj, which is
// deterministic big-integer work, the times as read spread by 7.9% and
// the scaled ones by 19%, because a 30 ms reading catches bursts from the
// neighbours that an 8 s run averages out.
func modexpNS() float64 {
	out := new(big.Int)
	per := make([]float64, 9)
	for i := range per {
		t0 := time.Now()
		out.Exp(calibBase, calibExp, calibMod)
		per[i] = float64(time.Since(t0))
	}
	return median(per)
}
