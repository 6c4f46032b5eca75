package main

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The bounded time metrics (setup_s, cpu_us_per_eval) are reported at
// reference speed: the raw time times refKernelMS over the median time the
// reference kernel took while it was measured. On a shared host the speed
// of a vCPU changes from minute to minute and between runs (co-tenants on
// the same cores); the same code read 8 µs of CPU per candidate in one
// run and 20 µs in another. The kernel is timed throughout the run, so it
// sees the same machine as the workload; it is fixed code that never
// calls the program, so the ratio keeps the program's own cost and drops
// most of the machine's. The raw times and the kernel's median go into
// the stamp.

// refKernelMS is the kernel time the metrics are scaled to: a time in the
// metrics is what the run would have taken on a machine that runs the
// kernel in exactly this much thread CPU time.
const refKernelMS = 1.0

// refKernel is fixed work in the mix the program does: pointer chasing
// through an arena, floating-point arithmetic, map lookups, sorting and
// block copies. It allocates nothing, so it never pays for the program's
// garbage; its data (under 1 MB) fits in L2 like the program's working
// set.
type refKernel struct {
	next  []int32 // one random cycle through the arena
	vals  []float64
	keys  []uint64
	table map[uint64]uint32
	src   []int32
	buf   []int32
	sink  float64
}

func newRefKernel() *refKernel {
	const arena, entries, sortN = 1 << 15, 1 << 13, 1 << 11
	k := &refKernel{
		next:  make([]int32, arena),
		vals:  make([]float64, arena),
		keys:  make([]uint64, entries),
		table: make(map[uint64]uint32, entries),
		src:   make([]int32, sortN),
		buf:   make([]int32, sortN),
	}
	// A fixed xorshift stream: the kernel is the same in every run.
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	perm := make([]int32, arena)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := arena - 1; i > 0; i-- {
		j := int(rnd() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i := range perm {
		k.next[perm[i]] = perm[(i+1)%arena]
		k.vals[i] = float64(rnd()%1000) / 997
	}
	for i := range k.keys {
		k.keys[i] = rnd()
		k.table[k.keys[i]] = uint32(i)
	}
	for i := range k.src {
		k.src[i] = int32(rnd())
	}
	return k
}

// run does one fixed unit of work, about a millisecond on the machine the
// benchmark was built on.
func (k *refKernel) run() {
	acc := 0.0
	i := int32(0)
	for step := 0; step < 1<<16; step++ {
		i = k.next[i]
		acc = acc*0.999 + math.Sqrt(k.vals[i]+1)
	}
	hits := uint32(0)
	for r := 0; r < 8; r++ {
		for j, key := range k.keys {
			hits += k.table[key^uint64(r&1)*uint64(j)]
		}
	}
	for r := 0; r < 8; r++ {
		copy(k.buf, k.src)
		k.buf[0] += int32(r)
		slices.Sort(k.buf)
	}
	k.sink = acc + float64(hits) + float64(k.buf[len(k.buf)/2])
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// sampler runs beside a workload on its own locked thread. Every
// samplePeriod it reads the resident set, and every other period it times
// the reference kernel: one untimed run brings the kernel's data back
// into the cache the program used meanwhile, then one run is timed in
// thread CPU time. It costs about 2% of one CPU, which workCPU leaves out
// of the workload's CPU time.
type sampler struct {
	stop, done chan struct{}
	mu         sync.Mutex
	rssMB      []float64
	kernel     []kernelSample
	used       time.Duration // the sampler thread's CPU time
}

type kernelSample struct {
	at time.Time
	ms float64
}

// samplePeriod is the resident-set sampling period: 400 samples, and 200
// kernel samples, in a 20 s run.
const samplePeriod = 50 * time.Millisecond

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go func() {
		defer close(s.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		k := newRefKernel()
		base := threadCPU()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for n := 0; ; n++ {
			mb, ok := residentMB()
			var ks kernelSample
			if n%2 == 0 {
				k.run()
				t0 := threadCPU()
				k.run()
				ks = kernelSample{at: time.Now(), ms: ms(threadCPU() - t0)}
			}
			s.mu.Lock()
			if ok {
				s.rssMB = append(s.rssMB, mb)
			}
			if ks.ms > 0 {
				s.kernel = append(s.kernel, ks)
			}
			s.used = threadCPU() - base
			s.mu.Unlock()
			if n == 0 {
				close(ready)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	<-ready
	return s
}

// close stops the sampler and waits for it to exit.
func (s *sampler) close() {
	close(s.stop)
	<-s.done
}

// cpuUsed is the sampler thread's CPU time so far.
func (s *sampler) cpuUsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.used
}

// kernelMS is the median kernel time over the samples taken in [from, to].
func (s *sampler) kernelMS(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var xs []float64
	for _, k := range s.kernel {
		if !k.at.Before(from) && !k.at.After(to) {
			xs = append(xs, k.ms)
		}
	}
	return median(xs)
}

// residentSet returns the resident-set samples in MB, in time order.
func (s *sampler) residentSet() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.rssMB...)
}
