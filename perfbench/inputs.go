package main

import (
	"encoding/binary"
	"fmt"
	"time"

	"salsa"
	"salsa/internal/loadgen"
)

// Workload parameters. They are fixed here, not flags, so that every run
// of a workload measures the same thing; only the seed varies.
const (
	// pool-steal: tasks allowed in flight between the owner's Put and
	// either consumer's TryGet. Smaller than one SALSA chunk (1000), so
	// the thief keeps racing the owner for the one chunk in use.
	stealInFlight = 256
	// stealRunMax bounds a seeded put run: lengths are uniform in
	// [1, stealRunMax].
	stealRunMax = 64

	// executor-open: offered Poisson rate and the admission limit above
	// it, so that admission never sheds on its own. At 2000 tasks/s the
	// worker is idle between most arrivals, so a task's latency is the
	// worker's wake from its timed backoff sleep; at 50 000/s the worker
	// wakes into a queue, and the p50 swung 4x with host load between
	// runs.
	openRate      = 2000
	openAdmitRate = 10 * openRate
	openHighFrac  = 0.25

	// cluster-loopback: tasks per PUT_BATCH frame, task bodies in flight
	// between Produce and the worker receiving them, and the body-size
	// range in bytes (the first 8 bytes of a body hold the task id).
	loopBatch    = 64
	loopInFlight = 2048
	loopBodyMin  = 12
	loopBodyMax  = 20
)

// tableLen is the length of the seeded tables the closed loops cycle
// through.
const tableLen = 4096

// inputs is everything a seed decides. The program under test receives
// only these values: run lengths, arrival times and classes, body sizes.
type inputs struct {
	runLens  []uint8 // pool-steal: length of each owner put run
	arriveAt []int64 // executor-open: intended arrival, ns from schedule start
	classes  []salsa.PriorityClass
	bodyLens []uint8 // cluster-loopback: body size of task i is bodyLens[i%tableLen]
}

// splitmix64 is the seeded stream for the closed-loop tables.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func seededTable(seed uint64, lo, hi int) []uint8 {
	r := splitmix64{s: seed}
	t := make([]uint8, tableLen)
	for i := range t {
		t[i] = uint8(lo + int(r.next()%uint64(hi-lo+1)))
	}
	return t
}

// genInputs builds the inputs of workload w for seed. horizon is the
// schedule length of the open loop (warm-up plus timed window).
func genInputs(w string, seed uint64, horizon time.Duration) (inputs, error) {
	switch w {
	case "pool-steal":
		return inputs{runLens: seededTable(seed, 1, stealRunMax)}, nil
	case "executor-open":
		sched := loadgen.BuildSchedule(loadgen.Scenario{
			Name:        w,
			Producers:   1,
			Consumers:   1,
			Horizon:     horizon,
			Shape:       loadgen.Shape{Kind: loadgen.Poisson, Rate: openRate},
			SizeMin:     1,
			HighFrac:    openHighFrac,
			UseExecutor: true,
		}, seed)
		// Keep only what the generator needs: the schedule's Arrival
		// records are seven words each and would dominate the heap.
		in := inputs{
			arriveAt: make([]int64, len(sched.Arrivals)),
			classes:  make([]salsa.PriorityClass, len(sched.Arrivals)),
		}
		for i, a := range sched.Arrivals {
			in.arriveAt[i] = a.At.Nanoseconds()
			in.classes[i] = a.Class
		}
		return in, nil
	case "cluster-loopback":
		return inputs{bodyLens: seededTable(seed, loopBodyMin, loopBodyMax)}, nil
	}
	return inputs{}, fmt.Errorf("unknown workload %q", w)
}

// body writes task id's body into dst: the id, then filler bytes derived
// from the id, bodyLens[id%tableLen] bytes in all.
func (in inputs) body(dst []byte, id uint64) []byte {
	n := int(in.bodyLens[id%tableLen])
	dst = binary.LittleEndian.AppendUint64(dst[:0], id)
	for i := 8; i < n; i++ {
		dst = append(dst, byte(id)+byte(i)*31)
	}
	return dst
}

// checkBody returns the id carried by b and whether b is exactly the body
// that id was sent with.
func (in inputs) checkBody(b []byte) (uint64, bool) {
	if len(b) < 8 {
		return 0, false
	}
	id := binary.LittleEndian.Uint64(b)
	if len(b) != int(in.bodyLens[id%tableLen]) {
		return id, false
	}
	for i := 8; i < len(b); i++ {
		if b[i] != byte(id)+byte(i)*31 {
			return id, false
		}
	}
	return id, true
}
