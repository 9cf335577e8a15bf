package main

import "fmt"

// ledger records the task ids one goroutine delivered. Each delivering
// goroutine owns its ledger, so recording is a plain bit set with no
// shared cache line; the verdict merges the ledgers after the run.
type ledger struct {
	bits     []uint64
	ndups    int64  // recordings of an id this ledger already held
	firstDup uint64 // the first such id
}

// newLedger sizes a ledger for ids below expect, so that it does not
// grow while the window runs; ids past it still record.
func newLedger(expect int) *ledger { return &ledger{bits: make([]uint64, expect/64+1)} }

// ledgerBytes is the heap the given ledgers hold: the benchmark's own
// memory, which mem_live_mb leaves out.
func ledgerBytes(ls ...*ledger) uint64 {
	var n uint64
	for _, l := range ls {
		n += 8 * uint64(len(l.bits))
	}
	return n
}

func (l *ledger) record(id uint64) {
	w := int(id >> 6)
	if w >= len(l.bits) {
		nb := make([]uint64, max(w+1, 2*len(l.bits)))
		copy(nb, l.bits)
		l.bits = nb
	}
	m := uint64(1) << (id & 63)
	if l.bits[w]&m != 0 {
		if l.ndups == 0 {
			l.firstDup = id
		}
		l.ndups++
		return
	}
	l.bits[w] |= m
}

func (l *ledger) has(id uint64) bool {
	w := int(id >> 6)
	return w < len(l.bits) && l.bits[w]&(uint64(1)<<(id&63)) != 0
}

// verdict is the exactly-once accounting of one run.
type verdict struct {
	offered int64 // ids 0..offered-1 were handed to the program
	lost    int64 // offered ids no ledger holds
	dup     int64 // deliveries beyond the first, and ids never offered
	example string
}

func (v verdict) ok() bool { return v.lost == 0 && v.dup == 0 }

// verify checks that every id below offered appears in exactly one
// ledger, once, and that no ledger holds any other id.
func verify(offered int64, ls ...*ledger) verdict {
	v := verdict{offered: offered}
	note := func(format string, args ...any) {
		if v.example == "" {
			v.example = fmt.Sprintf(format, args...)
		}
	}
	for _, l := range ls {
		v.dup += l.ndups
		if l.ndups > 0 {
			note("task %d delivered twice", l.firstDup)
		}
	}
	for id := uint64(0); id < uint64(offered); id++ {
		n := 0
		for _, l := range ls {
			if l.has(id) {
				n++
			}
		}
		switch {
		case n == 0:
			v.lost++
			note("task %d lost", id)
		case n > 1:
			v.dup += int64(n - 1)
			note("task %d delivered %d times", id, n)
		}
	}
	for _, l := range ls {
		for w := offered >> 6; w < int64(len(l.bits)); w++ {
			for b := 0; b < 64; b++ {
				id := w<<6 + int64(b)
				if id >= offered && l.bits[w]&(uint64(1)<<b) != 0 {
					v.dup++
					note("task %d delivered but never offered", id)
				}
			}
		}
	}
	return v
}
