package main

import (
	"fmt"
	"math/bits"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host the benchmark runs on shares its CPUs with other tenants, and
// its speed drifts by 10-25 % within a minute: a program's CPU time moves
// with it as much as with the program. A pacer measures that drift while
// the program runs. Every child is bound to one CPU (pacerCPU) with
// GOMAXPROCS=1, and while it works the pacer repeats a fixed kernel on a
// thread bound to the same CPU, so the two share that CPU's speed from one
// time slice to the next. Scaling the child's CPU time by pacerRefMs over
// the pacer's CPU time per repetition gives its CPU time at a fixed host
// speed. Over 14 back-to-back quick evaluations on the benchmark's 2-vCPU
// VM, at a busy moment, this cut the quartile spread of their CPU time
// from 25.7 % to 3.9 %; a pacer on the other CPU cut it only from 15.3 %
// to 14.6 %.

// pacerRefMs is the pacer's CPU time per repetition that normalized
// figures refer to: its median, sharing a CPU with an evaluation, on the
// 2-vCPU Intel Xeon VM the benchmark was written on, so they read as CPU
// time on that machine.
const pacerRefMs = 18.0

// pacerMem is the kernel's working set, 4 MiB: larger than the private
// caches, so the kernel feels memory contention as the emulator does.
var pacerMem = make([]uint32, 1<<20)

// pacerKernel is one repetition: a fixed sequence of pseudo-random,
// data-dependent loads, stores and branches over pacerMem.
func pacerKernel() {
	const mask = 1<<20 - 1
	x := uint32(12345)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		j := x & mask
		switch pacerMem[j] & 3 {
		case 0:
			pacerMem[j] += x
		case 1:
			pacerMem[j] ^= x >> 3
		default:
			pacerMem[(j+64)&mask]++
		}
	}
}

// cpuMask is a scheduler affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func getAffinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, fmt.Errorf("sched_getaffinity: %w", e)
	}
	return m, nil
}

// setAffinity binds the calling OS thread to the CPUs in m.
func setAffinity(m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return fmt.Errorf("sched_setaffinity: %w", e)
	}
	return nil
}

// pacerCPU is the mask of the one CPU children and the pacer share: the
// last CPU the benchmark may use, leaving the others to its own
// goroutines.
var pacerCPU = func() cpuMask {
	all, err := getAffinity()
	if err != nil {
		panic(err) // the calling process's own mask is always readable
	}
	var one cpuMask
	for i := len(all) - 1; i >= 0; i-- {
		if all[i] != 0 {
			one[i] = 1 << (63 - bits.LeadingZeros64(all[i]))
			break
		}
	}
	return one
}()

// startPinned starts cmd bound to pacerCPU: a child inherits the affinity
// of the thread that starts it.
func startPinned(cmd *exec.Cmd) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	saved, err := getAffinity()
	if err != nil {
		return err
	}
	if err := setAffinity(pacerCPU); err != nil {
		return err
	}
	startErr := cmd.Start()
	if err := setAffinity(saved); err != nil {
		if startErr == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		return err
	}
	return startErr
}

// pacer is a running pacer; end stops it.
type pacer struct {
	stop atomic.Bool
	done chan float64 // receives the CPU ms per repetition once stopped
}

// startPacer starts the pacer on a thread bound to pacerCPU. Its thread
// is discarded when the pacer ends, so the binding never reaches other
// goroutines.
func startPacer() *pacer {
	p := &pacer{done: make(chan float64, 1)}
	go func() {
		runtime.LockOSThread() // never unlocked: the thread exits with the goroutine
		if err := setAffinity(pacerCPU); err != nil {
			panic(err) // binding the process's own thread to a CPU it may use cannot fail
		}
		t0 := threadCPU()
		n := 0
		for n == 0 || !p.stop.Load() {
			pacerKernel()
			n++
		}
		p.done <- ms(threadCPU()-t0) / float64(n)
	}()
	return p
}

// end stops the pacer, waits for it to finish the repetition it is in,
// and returns its CPU time per repetition in ms.
func (p *pacer) end() float64 {
	p.stop.Store(true)
	return <-p.done
}

// normalize scales cpuMs, measured while the pacer took pacerMs per
// repetition, to the host speed pacerRefMs stands for.
func normalize(cpuMs, pacerMs float64) float64 { return cpuMs * pacerRefMs / pacerMs }

// threadCPU returns the calling OS thread's user + system time.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_THREAD, &ru) // cannot fail for RUSAGE_THREAD with a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
