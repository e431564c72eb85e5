package main

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"
)

// The host this benchmark shares runs other work whose load changes over
// minutes, and it slows the simulator by up to 70% for minutes at a time.
// No estimator over one run's own iterations removes that: on a shared
// 2-core VM, the median and the fastest iteration of one workload and seed
// moved by up to a third between 40 s windows a few minutes apart, and the
// fastest stretches between governor polls, summed, moved as much.
//
// What does remove most of it is timing fixed work of the same kind in the
// same process and reporting the workload's time relative to it. Tight
// loops track the slowdown poorly (a multiply chain with random writes
// slowed by 20% while the simulator slowed by 70%); code like the
// simulator's tracks it well. So a calibration round is a small
// discrete-event simulation (a container/heap queue of closures over
// 512 KiB of state), map updates, JSON encoding and decoding, and random
// writes over 32 MiB, beyond the private caches. Over a 7-minute recording
// the simulator's time over this work moved by 2.5% (quartile spread)
// between 40 s windows where its own time moved by 12%. The work is part of
// the benchmark, not of the program, so it stays the same from one version
// of the program to the next.

// calRounds is the number of rounds timed before a workload, and again
// after it.
const calRounds = 2

// calRefS is the median calibration round on the reference host, a shared
// 2-core Intel Xeon VM (105 MiB L3). Reported timings are scaled by calRefS
// over the iteration's own median round, so they read as seconds on the
// reference host.
const calRefS = 0.080

var calSink uint64

// calibrate times calRounds calibration rounds and returns each round's
// time in seconds. It runs before and after a workload, and collects the
// garbage before and after timing, so that neither disturbs the other:
// what the workload's heap sampler sees is the workload's own heap.
func calibrate() []float64 {
	runtime.GC()
	buf := make([]uint64, 1<<22) // 32 MiB
	for i := range buf {         // fault the pages in before timing
		buf[i] = uint64(i)
	}
	rounds := make([]float64, calRounds)
	for r := range rounds {
		start := time.Now()
		calSink += calEvents() + calMaps() + calJSON() + calWrites(buf)
		rounds[r] = time.Since(start).Seconds()
	}
	runtime.KeepAlive(buf)
	runtime.GC()
	return rounds
}

type calEvent struct {
	at uint64
	fn func()
}

type calQueue []*calEvent

func (q calQueue) Len() int           { return len(q) }
func (q calQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q calQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *calQueue) Push(x any)        { *q = append(*q, x.(*calEvent)) }
func (q *calQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// calEvents runs a fixed event loop: each event updates a random state
// word and schedules a successor.
func calEvents() uint64 {
	rng := rand.New(rand.NewSource(2))
	state := make([]uint64, 1<<16)
	q := &calQueue{}
	for range 5000 {
		heap.Push(q, &calEvent{at: rng.Uint64() % 1000, fn: func() {}})
	}
	var now uint64
	for range 40_000 {
		e := heap.Pop(q).(*calEvent)
		now = e.at
		e.fn()
		k := rng.Intn(len(state))
		state[k] += now
		heap.Push(q, &calEvent{at: now + uint64(rng.Intn(500)), fn: func() { state[k]++ }})
	}
	return now
}

func calMaps() uint64 {
	rng := rand.New(rand.NewSource(1))
	m := map[uint64]uint64{}
	for i := range 200_000 {
		k := rng.Uint64() % 100_000
		m[k] += uint64(i)
		if i%3 == 0 {
			delete(m, k^1)
		}
	}
	return uint64(len(m))
}

type calRecord struct {
	Name  string
	Vals  []float64
	Tags  map[string]int
	Inner *calRecord
}

func calJSON() uint64 {
	rng := rand.New(rand.NewSource(4))
	recs := make([]calRecord, 2000)
	for i := range recs {
		recs[i] = calRecord{Name: fmt.Sprint("n", i), Vals: []float64{rng.Float64(), rng.Float64()},
			Tags: map[string]int{"a": i}, Inner: &calRecord{Name: "x"}}
	}
	var n uint64
	for range 2 {
		b, err := json.Marshal(recs)
		if err != nil {
			panic(err)
		}
		var out []calRecord
		if err := json.Unmarshal(b, &out); err != nil {
			panic(err)
		}
		n += uint64(len(out))
	}
	return n
}

// calWrites does random read-modify-writes over buf, whose length is 1<<22.
func calWrites(buf []uint64) uint64 {
	x := uint64(1)
	for range 1_000_000 {
		x = x*6364136223846793005 + 1442695040888963407
		buf[x>>42] += x // the top 22 bits index buf
	}
	return x
}
