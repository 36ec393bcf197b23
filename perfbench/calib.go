package main

import (
	"runtime"
	"slices"
	"strconv"
	"syscall"
	"unsafe"
)

// refNominal is the CPU time, in seconds, that refWork takes on the
// reference host: the 2-vCPU VM this benchmark was built on, in its fast
// state. Figures are reported as if the host ran refWork in this time.
const refNominal = 0.005

// refReps is how many times a calibration block times refWork.
const refReps = 5

// refCPUs is the most vCPUs refWork is timed on: the vCPUs of a shared
// host run at different speeds, and each one's speed changes on its own.
const refCPUs = 4

// refN is the number of keys refWork works on: small enough that one run
// every second of the timed phase costs well under 1% of a vCPU.
const refN = 1 << 15

// refState holds refWork's buffers, reused so that a run allocates little
// and no garbage collection is charged to it, and the vCPUs it runs on.
type refState struct {
	keys []uint32
	m    map[uint32]uint32
	buf  []byte
	sink uint64
	all  cpuMask // the vCPUs this process may run on
	cpus []int   // the first refCPUs of them
}

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func newRefState() *refState {
	r := &refState{keys: make([]uint32, refN), m: make(map[uint32]uint32, refN), buf: make([]byte, 0, 16)}
	if affinity(syscall.SYS_SCHED_GETAFFINITY, &r.all) == nil {
		for c := 0; c < len(r.all)*64 && len(r.cpus) < refCPUs; c++ {
			if r.all[c/64]&(1<<(c%64)) != 0 {
				r.cpus = append(r.cpus, c)
			}
		}
	}
	return r
}

// affinity gets or sets the calling thread's CPU affinity mask.
func affinity(trap uintptr, m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// work is refWork: a fixed piece of CPU work owned by the benchmark, never
// by the program under test: integer arithmetic, map inserts and lookups,
// sorting and number formatting, the kinds of work minupd's request paths
// are made of. Its CPU time says how fast the host's cores run right now;
// on a shared host that swings by more than 2× within minutes, with no
// steal to show for it, as neighbours come and go on the same cores.
func (r *refState) work() {
	x := uint32(2463534242)
	for i := range r.keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		r.keys[i] = x
	}
	clear(r.m)
	for i, k := range r.keys {
		r.m[k] = uint32(i)
	}
	for _, k := range r.keys {
		r.sink += uint64(r.m[k^1] + r.m[k])
	}
	slices.Sort(r.keys)
	for _, k := range r.keys {
		r.buf = strconv.AppendUint(r.buf[:0], uint64(k), 10)
		r.sink += uint64(len(r.buf))
	}
}

// time runs refWork once on each of r.cpus, pinned there, and returns the
// mean CPU time of a run, in seconds. Without affinity control it runs
// refWork once wherever the scheduler puts it.
func (r *refState) time() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if len(r.cpus) == 0 {
		t0 := threadCPU()
		r.work()
		return threadCPU() - t0
	}
	// Pinned to one vCPU, then free again before the thread is unlocked.
	defer affinity(syscall.SYS_SCHED_SETAFFINITY, &r.all)
	var sum float64
	for _, c := range r.cpus {
		var one cpuMask
		one[c/64] = 1 << (c % 64)
		if err := affinity(syscall.SYS_SCHED_SETAFFINITY, &one); err != nil {
			return 0
		}
		t0 := threadCPU()
		r.work()
		sum += threadCPU() - t0
	}
	return sum / float64(len(r.cpus))
}

// calibrate times refWork refReps times (see time) and returns each time,
// in seconds.
func (r *refState) calibrate() []float64 {
	out := make([]float64, refReps)
	for i := range out {
		out[i] = r.time()
	}
	return out
}

// threadCPU is the calling thread's CPU time in seconds. The kernel leaves
// hypervisor steal out of it, so it measures core speed, not steal.
func threadCPU() float64 {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

// hostSpeed turns calibration times into the factor that scales a time
// measured on this host to the reference host: refNominal over the
// median time. It is 1 without calibration times.
func hostSpeed(times []float64) float64 {
	if len(times) == 0 {
		return 1
	}
	med := median(append([]float64(nil), times...))
	if med <= 0 {
		return 1
	}
	return refNominal / med
}
