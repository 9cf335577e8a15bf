package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// TestVerdictHasTeeth checks that the exactly-once verdict fails on one
// dropped id and on one doubled id, whichever ledgers hold them.
func TestVerdictHasTeeth(t *testing.T) {
	const n = 1000
	fill := func(skip int64) (*ledger, *ledger) {
		a, b := newLedger(16), newLedger(16) // small: recording must grow them
		for id := int64(0); id < n; id++ {
			if id == skip {
				continue
			}
			if id%3 == 0 {
				b.record(uint64(id))
			} else {
				a.record(uint64(id))
			}
		}
		return a, b
	}
	a, b := fill(-1)
	if v := verify(n, a, b); !v.ok() {
		t.Fatalf("complete delivery failed the verdict: %+v", v)
	}

	a, b = fill(417)
	if v := verify(n, a, b); v.ok() || v.lost != 1 || v.dup != 0 {
		t.Errorf("dropped id: verdict %+v, want lost=1 dup=0", v)
	}

	a, b = fill(-1)
	a.record(5) // already in a
	if v := verify(n, a, b); v.ok() || v.dup != 1 || v.lost != 0 {
		t.Errorf("id doubled in one ledger: verdict %+v, want dup=1 lost=0", v)
	}

	a, b = fill(-1)
	a.record(6) // 6 is in b
	if v := verify(n, a, b); v.ok() || v.dup != 1 || v.lost != 0 {
		t.Errorf("id in two ledgers: verdict %+v, want dup=1 lost=0", v)
	}

	a, b = fill(-1)
	b.record(n + 70) // never offered
	if v := verify(n, a, b); v.ok() || v.dup != 1 {
		t.Errorf("id never offered: verdict %+v, want dup=1", v)
	}
}

// TestInputsSeeded checks that a seed fixes a workload's inputs byte for
// byte and that another seed changes them.
func TestInputsSeeded(t *testing.T) {
	const horizon = 200 * time.Millisecond
	for w := range workloads {
		gen := func(seed uint64) []byte {
			in, err := genInputs(w, seed, horizon)
			if err != nil {
				t.Fatal(err)
			}
			return in.encode()
		}
		a, b, c := gen(7), gen(7), gen(8)
		if len(a) == 0 {
			t.Errorf("%s: no inputs", w)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave different inputs on two calls", w)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", w)
		}
	}
}

func TestBodyCheck(t *testing.T) {
	in, err := genInputs("cluster-loopback", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 3*tableLen; id += 97 {
		b := in.body(nil, id)
		if got, ok := in.checkBody(b); !ok || got != id {
			t.Fatalf("body of %d checks as %d, %v", id, got, ok)
		}
		b[len(b)-1]++
		if _, ok := in.checkBody(b); ok {
			t.Fatalf("corrupted body of %d passed the check", id)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h hist
	vs := make([]float64, 100000)
	for i := range vs {
		v := math.Exp(r.NormFloat64()*1.5 + 11) // a wide log-normal, in ns
		vs[i] = v
		h.observe(int64(v))
	}
	sort.Float64s(vs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vs[int(q*float64(len(vs)))]
		if got := h.quantile(q); math.Abs(got-exact)/exact > 1.0/32 {
			t.Errorf("q%.3f = %.0f, exact %.0f", q, got, exact)
		}
	}
}

// TestTraceRoundTrip writes a span file, reads it back and checks self
// time: the parent's duration less the union of its children.
func TestTraceRoundTrip(t *testing.T) {
	b := newSpanBuf(8)
	b.add(span{name: spBatch, start: 0, end: 100, id: 1, n: 64})
	b.add(span{name: spProduce, parent: spBatch, parentID: 1, start: 10, end: 40, id: 1, n: 64})
	b.add(span{name: spProduce, parent: spBatch, parentID: 1, start: 30, end: 50, id: 2, n: 64})
	b.add(span{name: spGetBatch, start: 5, end: 7, id: -1})
	path := filepath.Join(t.TempDir(), "x.spans")
	if err := writeTrace(path, []string{"test"}, map[string]float64{"window.tasks": 64}, b); err != nil {
		t.Fatal(err)
	}
	tf, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tf.spans) != 4 || tf.counters["window.tasks"] != 64 || tf.header[0] != "test" {
		t.Fatalf("read back %d spans, counters %v, header %v", len(tf.spans), tf.counters, tf.header)
	}
	st := analyze(tf)
	if got := st[spBatch].selfNs; got != 60 {
		t.Errorf("bench.batch self time %v, want 60", got)
	}
	if got := st[spGetBatch]; got.count != 1 || got.got != 0 {
		t.Errorf("remote.GetBatch count %d got %d, want 1 and 0", got.count, got.got)
	}
}

// encode renders the inputs canonically; two inputs are identical iff
// their encodings are.
func (in inputs) encode() []byte {
	var b bytes.Buffer
	b.Write(in.runLens)
	for i, at := range in.arriveAt {
		b.Write(binary.LittleEndian.AppendUint64(nil, uint64(at)))
		b.WriteByte(byte(in.classes[i]))
	}
	b.Write(in.bodyLens)
	return b.Bytes()
}
