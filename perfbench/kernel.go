package main

import (
	"container/heap"
	goruntime "runtime"
	"sort"
	"time"
)

// The simulator's sub-runs are CPU-bound and single-threaded, so their wall
// and CPU times follow the speed of the machine, which on a shared VM swings
// by up to 1.65× within minutes. refKernel is a fixed piece of benchmark
// code with the simulator's mix of work — a binary heap, map updates, small
// allocations, pointer chasing and a sort — timed right before each sub-run.
// Scaling a sub-run by refNominal/refKernel() states its times at one
// reference speed; a change to the program moves them exactly as it moves
// the raw times, because the kernel is not program code. Set-up blocks are
// scaled the same way. The wall-clock backends are wake-up-bound as much as
// CPU-bound and follow the reference pipeline (refpipe.go) instead.

// refNominal is the kernel's time at the reference speed: its typical time
// on the 2-vCPU VM the benchmark was calibrated on. Any constant would do;
// this one keeps the scaled numbers close to raw ones.
const refNominal = 10 * time.Millisecond

type intHeap []int

func (h intHeap) Len() int            { return len(h) }
func (h intHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x interface{}) { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() interface{} {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type refNode struct {
	next *refNode
	v    int
}

// refSink keeps the kernel's results live.
var refSink int

// refKernel runs the reference work once, after a GC so the program's
// garbage does not land on it, and returns its wall time.
func refKernel() time.Duration {
	goruntime.GC()
	t0 := time.Now()
	x := uint64(99)
	rnd := func() int {
		x = x*6364136223846793005 + 1442695040888963407
		return int(x >> 33)
	}
	h := &intHeap{}
	for i := 0; i < 20000; i++ {
		heap.Push(h, rnd())
	}
	for h.Len() > 0 {
		refSink += heap.Pop(h).(int)
	}
	m := make(map[int]int)
	for i := 0; i < 20000; i++ {
		m[rnd()%30000] += i
	}
	var list *refNode
	for i := 0; i < 20000; i++ {
		list = &refNode{next: list, v: rnd()}
	}
	for n := list; n != nil; n = n.next {
		refSink += n.v
	}
	buf := make([]int, 1<<14)
	for i := range buf {
		buf[i] = rnd()
	}
	sort.Ints(buf)
	refSink += len(m) + buf[0]
	return time.Since(t0)
}
