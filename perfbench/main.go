// Command perfbench is the repository benchmark. It runs one seeded
// workload against the public entry points (salsa.Pool handles, the
// executor with admission, and a loopback shard through internal/remote),
// checks that every task was delivered exactly once, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
//
//	perfbench --workload pool-steal --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run measures the workload untraced and then again
// with spans around every public call, writes the spans and the layer
// counters to a span file under --out, reads that file back and prints
// the per-layer metrics computed from it. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type workload struct {
	setup func() (float64, error)
	run   func(runConfig) (outcome, error)
}

var workloads = map[string]workload{
	"pool-steal":       {setupPoolSteal, runPoolSteal},
	"executor-open":    {setupExecutorOpen, runExecutorOpen},
	"cluster-loopback": {setupClusterLoopback, runClusterLoopback},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: pool-steal, executor-open or cluster-loopback")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed window in seconds")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	out := flag.String("out", "perfbench-traces", "directory for span files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, trace bool, out string) error {
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	host := fingerprint()
	fmt.Printf("host: %s\n", host)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%v\n", name, seed, seconds, trace)

	rc := runConfig{seconds: seconds}
	if trace {
		// A traced run measures the workload twice, untraced and traced,
		// each for half the time, so that it takes no longer than an
		// untraced run.
		rc.seconds = max(1, seconds/2)
	}
	in, err := genInputs(name, seed, warmup+time.Duration(rc.seconds)*time.Second)
	if err != nil {
		return err
	}
	rc.in = in

	var setup float64
	if !trace {
		if setup, err = w.setup(); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
	}
	runtime.GC()
	o, err := w.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if o.v.offered == 0 {
		return fmt.Errorf("%s: no task was offered", name)
	}
	printVerdict(o)
	res := result{Correct: o.v.ok(), Attempted: o.v.offered, Failed: o.failed()}

	if !trace {
		res.Metrics = endToEnd(o, setup)
	} else {
		untraced := o
		rc.trace = true
		runtime.GC()
		o, err = w.run(rc)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		printVerdict(o)
		res.Correct = res.Correct && o.v.ok()
		res.Attempted += o.v.offered
		res.Failed += o.failed()
		c := o.counters
		c["window.tasks"] = float64(o.tasks)
		c["window.seconds"] = o.secs
		c["window.tps"] = o.throughput()
		c["untraced.tps"] = untraced.throughput()
		c["runtime.allocs"] = float64(o.probe.allocs)
		c["runtime.gcs"] = float64(o.probe.gcs)
		c["host.steal_frac"] = o.probe.stealFrac
		c["verdict.offered"] = float64(res.Attempted)
		c["verdict.failed"] = float64(res.Failed)
		c["latency.samples"] = float64(untraced.lat.pooled.n)
		c["latency.p999_ns"] = untraced.lat.pooled.quantile(0.999)
		path := filepath.Join(out, fmt.Sprintf("%s-seed%d.spans", name, seed))
		header := []string{"host " + host, fmt.Sprintf("workload %s seed %d seconds %d", name, seed, seconds)}
		if err := writeTrace(path, header, c, o.bufs...); err != nil {
			return fmt.Errorf("write span file: %w", err)
		}
		tf, err := readTrace(path)
		if err != nil {
			return err
		}
		fmt.Printf("spans: %s (%d spans)\n", path, len(tf.spans))
		st := analyze(tf)
		printSelfTimes(st)
		res.Metrics = layerMetrics(tf.counters, st)
	}

	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if !res.Correct {
		fmt.Printf("FAIL workload=%s seed=%d: %s\n", name, seed, o.v.example)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
	return nil
}

// endToEnd returns the metrics a user of the system sees, from an
// untraced run.
func endToEnd(o outcome, setup float64) map[string]metric {
	quiet := o.quiet()
	fmt.Printf("window: %d of %d seconds quiet (host steal at most %.3f); pooled throughput %.0f tasks/s\n",
		len(quiet), len(o.perSecond), max(quietStealFrac, median(o.stealPerSecond)), o.tps())
	fmt.Printf("latency: samples=%d pooled p50=%.1fus p99=%.1fus p999=%.1fus\n",
		o.lat.pooled.n, o.lat.pooled.quantile(0.5)/1e3, o.lat.pooled.quantile(0.99)/1e3, o.lat.pooled.quantile(0.999)/1e3)
	return map[string]metric{
		"throughput_tps": {o.throughput(), "1/s"},
		"latency_p50_us": {o.lat.windowMedian(0.5, quiet) / 1e3, "us"},
		"latency_p99_us": {o.lat.windowMedian(0.99, quiet) / 1e3, "us"},
		"setup_s":        {setup, "s"},
		"mem_live_mb":    {float64(o.probe.liveHeapBytes-o.ledgerBytes) / (1 << 20), "MB"},
	}
}

func printVerdict(o outcome) {
	fmt.Printf("verdict: offered=%d lost=%d duplicated=%d refused=%d failed_frac=%g host.steal_frac=%g\n",
		o.v.offered, o.v.lost, o.v.dup, o.refused, float64(o.failed())/float64(o.v.offered), o.probe.stealFrac)
}

func printSelfTimes(st [numSpanNames]*spanStats) {
	fmt.Printf("%-26s %9s %12s %12s\n", "span", "count", "mean_ns", "self_ns")
	for i := 1; i < int(numSpanNames); i++ {
		if s := st[i]; s.count > 0 {
			fmt.Printf("%-26s %9d %12.0f %12.0f\n", spanNames[i], s.count, s.meanNs(), s.meanSelfNs())
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes the per-layer metrics from a span file. A metric
// whose layer the workload does not exercise reads 0.
func layerMetrics(c map[string]float64, st [numSpanNames]*spanStats) map[string]metric {
	tasks := c["window.tasks"]
	tps := c["window.tps"]
	thief, getb := st[spThiefGet], st[spGetBatch]
	return map[string]metric{
		"pool.put_ns":           {st[spPut].meanNs(), "ns"},
		"pool.owner_get_ns":     {st[spOwnerGet].meanGotNs(), "ns"},
		"pool.thief_get_ns":     {thief.meanGotNs(), "ns"},
		"pool.thief_empty_frac": {ratio(float64(thief.count-thief.got), float64(thief.count)), "frac"},

		"core.fastpath_frac":        {ratio(c["core.fastpath"], c["core.gets"]), "frac"},
		"core.steal_success_frac":   {ratio(c["core.steals"], c["core.steal_attempts"]), "frac"},
		"core.steals_per_ktask":     {1e3 * ratio(c["core.steals"], tasks), "1/ktask"},
		"core.cas_per_task":         {ratio(c["core.cas"], tasks), "1/task"},
		"core.chunk_alloc_frac":     {ratio(c["core.chunk_allocs"], c["core.chunk_allocs"]+c["core.chunk_reuses"]), "frac"},
		"core.force_puts_per_ktask": {1e3 * ratio(c["core.force_puts"], tasks), "1/ktask"},

		"admission.shed_frac": {ratio(c["admission.sheds"], c["admission.admits"]+c["admission.sheds"]), "frac"},

		"executor.submit_ns_p50":   {median(st[spSubmit].durs), "ns"},
		"executor.parks_per_ktask": {1e3 * ratio(c["core.parks"], tasks), "1/ktask"},

		"remote.produce_us_p50":   {median(st[spProduce].durs) / 1e3, "us"},
		"remote.tasks_per_put":    {ratio(float64(st[spProduce].tasks), float64(st[spProduce].count)), "task/put"},
		"remote.get_batch_us_p50": {median(getb.durs) / 1e3, "us"},
		"remote.tasks_per_get":    {ratio(float64(getb.tasks), float64(getb.count)), "task/get"},
		"remote.empty_get_frac":   {ratio(float64(getb.count-getb.got), float64(getb.count)), "frac"},

		"shard.saturated_per_kput": {1e3 * ratio(c["shard.saturated"], c["shard.put_frames"]), "1/kput"},
		"shard.fastpath_frac":      {ratio(c["shard.fastpath"], c["shard.gets"]), "frac"},
		"shard.steals_per_ktask":   {1e3 * ratio(c["shard.steals"], tasks), "1/ktask"},

		"wire.bytes_per_task":     {ratio(c["wire.bytes"], c["wire.tasks"]), "B/task"},
		"wire.encode_ns_per_task": {ratio(st[spEncode].totalNs, float64(st[spEncode].tasks)), "ns/task"},
		"wire.decode_ns_per_task": {ratio(st[spDecode].totalNs, float64(st[spDecode].tasks)), "ns/task"},

		"runtime.allocs_per_task": {ratio(c["runtime.allocs"], tasks), "1/task"},
		"runtime.gc_per_mtask":    {1e6 * ratio(c["runtime.gcs"], tasks), "1/Mtask"},

		"bench.gen_late_frac":       {ratio(c["gen.late"], c["gen.dispatched"]), "frac"},
		"host.steal_frac":           {c["host.steal_frac"], "frac"},
		"bench.trace_overhead_frac": {1 - ratio(tps, c["untraced.tps"]), "frac"},
		"failed_frac":               {ratio(c["verdict.failed"], c["verdict.offered"]), "frac"},
		"latency_samples":           {c["latency.samples"], "count"},
		"latency_p999_us":           {c["latency.p999_ns"] / 1e3, "us"},
	}
}
