package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Span names. Spans are recorded by the benchmark around the public
// calls it makes into each layer; bench.* spans are the harness's own
// loop iterations, whose self time is the harness cost and waiting.
const (
	spNone     uint8 = iota
	spRun            // bench.run: one owner put run and the takes before it
	spPut            // pool.Put
	spOwnerGet       // pool.TryGet.owner
	spThiefGet       // pool.TryGet.thief
	spArrival        // bench.arrival: intended arrival to end of the task
	spSubmit         // executor.TrySubmitClass
	spTask           // executor.task: the task body on the worker
	spBatch          // bench.batch: credit wait, body build and Produce
	spProduce        // remote.Produce
	spDeliver        // bench.deliver: GetBatch and the ledger work after it
	spGetBatch       // remote.GetBatch
	spEncode         // wire.AppendPutReq
	spDecode         // wire.DecodeBatch
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"-", "bench.run", "pool.Put", "pool.TryGet.owner", "pool.TryGet.thief",
	"bench.arrival", "executor.TrySubmitClass", "executor.task",
	"bench.batch", "remote.Produce", "bench.deliver", "remote.GetBatch",
	"wire.AppendPutReq", "wire.DecodeBatch",
}

// span is one timed call. A span's identity is its name plus id; parent
// names the enclosing span by that identity, so a span recorded on one
// goroutine can name a parent recorded on another (executor tasks).
type span struct {
	name       uint8
	parent     uint8 // spNone for a root span
	n          int32 // tasks the call moved
	start, end int64 // ns since the run's epoch
	id         int64 // task, batch or call id; -1 when the call got nothing
	parentID   int64
}

// spanBuf is one goroutine's span store, preallocated so that tracing
// allocates nothing while the window runs. Spans past its capacity are
// counted, not kept.
type spanBuf struct {
	spans   []span
	dropped int64
}

func newSpanBuf(capacity int) *spanBuf { return &spanBuf{spans: make([]span, 0, capacity)} }

func (b *spanBuf) add(s span) {
	if b == nil {
		return
	}
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// traceFile is the content of a span file: the run's counters and its
// spans.
type traceFile struct {
	header   []string
	counters map[string]float64
	spans    []span
}

// writeTrace writes the counters and every buffer's spans to path, one
// record per line:
//
//	# <free text>
//	counter <key> <value>
//	span <name> <start_ns> <end_ns> <parent_name> <parent_id> <id> <n>
func writeTrace(path string, header []string, counters map[string]float64, bufs ...*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, h := range header {
		fmt.Fprintf(w, "# %s\n", h)
	}
	var dropped int64
	for _, b := range bufs {
		if b != nil {
			dropped += b.dropped
		}
	}
	counters["trace.spans_dropped"] = float64(dropped)
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "counter %s %s\n", k, strconv.FormatFloat(counters[k], 'g', -1, 64))
	}
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for _, s := range b.spans {
			fmt.Fprintf(w, "span %s %d %d %s %d %d %d\n", spanNames[s.name], s.start, s.end,
				spanNames[s.parent], s.parentID, s.id, s.n)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readTrace(path string) (*traceFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byName := map[string]uint8{}
	for i, n := range spanNames {
		byName[n] = uint8(i)
	}
	tf := &traceFile{counters: map[string]float64{}}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if h, ok := strings.CutPrefix(line, "# "); ok {
			tf.header = append(tf.header, h)
			continue
		}
		fs := strings.Fields(line)
		switch {
		case len(fs) == 3 && fs[0] == "counter":
			v, err := strconv.ParseFloat(fs[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: counter %s: %w", path, fs[1], err)
			}
			tf.counters[fs[1]] = v
		case len(fs) == 8 && fs[0] == "span":
			var s span
			var ok1, ok2 bool
			s.name, ok1 = byName[fs[1]]
			s.parent, ok2 = byName[fs[4]]
			var nums [5]int64
			for i, j := range []int{2, 3, 5, 6, 7} {
				v, err := strconv.ParseInt(fs[j], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("%s: bad span line %q", path, line)
				}
				nums[i] = v
			}
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("%s: unknown span name in %q", path, line)
			}
			s.start, s.end, s.parentID, s.id, s.n = nums[0], nums[1], nums[2], nums[3], int32(nums[4])
			tf.spans = append(tf.spans, s)
		default:
			return nil, fmt.Errorf("%s: bad line %q", path, line)
		}
	}
	return tf, sc.Err()
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	count   int64
	got     int64 // spans that moved at least one task
	tasks   int64 // sum of n
	totalNs float64
	selfNs  float64
	gotNs   float64 // total duration of the spans that moved a task
	durs    []float64
}

func (s *spanStats) meanNs() float64 {
	if s.count == 0 {
		return 0
	}
	return s.totalNs / float64(s.count)
}

// meanGotNs is the mean duration of the spans that moved a task.
func (s *spanStats) meanGotNs() float64 {
	if s.got == 0 {
		return 0
	}
	return s.gotNs / float64(s.got)
}

func (s *spanStats) meanSelfNs() float64 {
	if s.count == 0 {
		return 0
	}
	return s.selfNs / float64(s.count)
}

// analyze computes per-name statistics, including self time: a span's
// duration minus the part of it that its child spans cover.
func analyze(tf *traceFile) [numSpanNames]*spanStats {
	type key struct {
		name uint8
		id   int64
	}
	type iv struct{ s, e int64 }
	children := map[key][]iv{}
	for _, s := range tf.spans {
		if s.parent != spNone {
			k := key{s.parent, s.parentID}
			children[k] = append(children[k], iv{s.start, s.end})
		}
	}
	var out [numSpanNames]*spanStats
	for i := range out {
		out[i] = &spanStats{}
	}
	for _, s := range tf.spans {
		st := out[s.name]
		d := float64(s.end - s.start)
		st.count++
		st.totalNs += d
		st.durs = append(st.durs, d)
		st.tasks += int64(s.n)
		if s.n > 0 {
			st.got++
			st.gotNs += d
		}
		covered := int64(0)
		if s.id >= 0 {
			if cs := children[key{s.name, s.id}]; len(cs) > 0 {
				sort.Slice(cs, func(i, j int) bool { return cs[i].s < cs[j].s })
				cur := iv{-1, -1}
				for _, c := range cs {
					c.s, c.e = max(c.s, s.start), min(c.e, s.end)
					if c.e <= c.s {
						continue
					}
					if c.s > cur.e {
						covered += cur.e - cur.s
						cur = c
					} else if c.e > cur.e {
						cur.e = c.e
					}
				}
				covered += cur.e - cur.s
			}
		}
		st.selfNs += d - float64(covered)
	}
	return out
}
