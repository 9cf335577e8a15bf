package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"salsa"
	"salsa/internal/remote"
)

// loopGetWait is how long a GET_BATCH may wait on a dry shard. Any
// value of a millisecond or more behaves the same while tasks flow; the
// shard polls a dry pool every 200µs inside it.
const loopGetWait = 10 * time.Millisecond

// loopStampRing holds the Produce start time per batch. It must exceed
// the batches in flight (loopInFlight/loopBatch plus one partial).
const loopStampRing = 1024

// loopTraceEvery: in a traced run one batch and one GetBatch call in this
// many record spans.
const loopTraceEvery = 2

// codecBatches is how many of the workload's batches the traced run
// encodes and decodes to time the wire codec; codecPasses repeats them.
const (
	codecBatches = 1000
	codecPasses  = 4
)

type loopback struct {
	srv  *remote.Server
	prod *remote.Producer
	wk   *remote.Worker
}

func (l *loopback) close() {
	if l.wk != nil {
		l.wk.Drain()
	}
	if l.prod != nil {
		l.prod.Close()
	}
	l.srv.Close()
}

// newLoopback boots one shard on loopback TCP with one producer lane and
// one resident consumer (its pool keeps the shard's built-in metrics on)
// and dials one producer and one worker connection to it.
func newLoopback() (*loopback, error) {
	srv, err := remote.NewServer("127.0.0.1:0", remote.Options{House: 1, Lanes: 1})
	if err != nil {
		return nil, err
	}
	l := &loopback{srv: srv}
	if l.prod, err = remote.DialProducer([]string{srv.Addr()}, remote.ProducerOptions{}); err != nil {
		l.close()
		return nil, err
	}
	if l.wk, err = remote.DialWorker(srv.Addr(), remote.WorkerOptions{}); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func setupClusterLoopback() (float64, error) {
	return medianSetup(func() (func(), error) {
		l, err := newLoopback()
		if err != nil {
			return nil, err
		}
		return l.close, nil
	})
}

// runClusterLoopback drives the whole wire data path: one producer
// goroutine sends PUT_BATCH frames of seeded bodies, holding at most
// loopInFlight tasks between Produce and the worker receiving them, and
// one worker goroutine loops on GetBatch, checking every body.
func runClusterLoopback(rc runConfig) (outcome, error) {
	l, err := newLoopback()
	if err != nil {
		return outcome{}, err
	}
	defer l.close()
	in := rc.in
	clk := clock{epoch: time.Now()}
	t0ns := int64(warmup)
	var stamps [loopStampRing]atomic.Int64
	credits := make(chan struct{}, loopInFlight/loopBatch) // one per batch in flight
	for i := 0; i < cap(credits); i++ {
		credits <- struct{}{}
	}
	var (
		stop      atomic.Bool
		sent      atomic.Int64 // tasks Produce accepted
		prodDone  atomic.Bool
		delivered atomic.Int64
		corrupt   atomic.Int64
		prodErr   error
		workErr   error
	)
	workerGone := make(chan struct{})
	led := newLedger(4_000_000 * (rc.seconds + 3))
	lat := newWindowHists(rc.seconds)
	var prodBuf, workBuf *spanBuf
	if rc.trace {
		prodBuf, workBuf = newSpanBuf(spanBufCap), newSpanBuf(spanBufCap)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		defer prodDone.Store(true)
		backing := make([]byte, loopBatch*loopBodyMax)
		bodies := make([][]byte, loopBatch)
		for b := int64(0); !stop.Load(); b++ {
			traced := prodBuf != nil && b%loopTraceEvery == 0
			var bst int64
			if traced {
				bst = clk.ns()
			}
			select {
			case <-credits:
			case <-workerGone:
				return
			}
			for i := range bodies {
				off := i * loopBodyMax
				bodies[i] = in.body(backing[off:off:off+loopBodyMax], uint64(b*loopBatch+int64(i)))
			}
			st := clk.ns()
			stamps[b%loopStampRing].Store(st)
			if err := l.prod.Produce(ctx, bodies); err != nil {
				prodErr = fmt.Errorf("produce batch %d: %w", b, err)
				return
			}
			if traced {
				end := clk.ns()
				prodBuf.add(span{name: spProduce, parent: spBatch, parentID: b, start: st, end: end, id: b, n: loopBatch})
				prodBuf.add(span{name: spBatch, start: bst, end: end, id: b, n: loopBatch})
			}
			sent.Add(loopBatch)
		}
	}()
	go func() { // worker
		defer wg.Done()
		defer close(workerGone)
		var got, released int64
		var deadline time.Time
		for g := int64(0); ; g++ {
			if prodDone.Load() {
				if got >= sent.Load() {
					return
				}
				if deadline.IsZero() {
					deadline = time.Now().Add(drainTimeout)
				} else if time.Now().After(deadline) {
					return
				}
			}
			traced := workBuf != nil && g%loopTraceEvery == 0
			st := clk.ns()
			bodies, err := l.wk.GetBatch(1024, loopGetWait)
			now := clk.ns()
			if err != nil {
				workErr = fmt.Errorf("get batch: %w", err)
				cancel()
				return
			}
			for _, b := range bodies {
				id, ok := in.checkBody(b)
				if !ok {
					corrupt.Add(1)
					continue
				}
				led.record(id)
				put := stamps[(id/loopBatch)%loopStampRing].Load()
				lat.observe(put-t0ns, now-put)
			}
			got += int64(len(bodies))
			delivered.Store(got)
			for ; got-released >= loopBatch; released += loopBatch {
				credits <- struct{}{}
			}
			if traced {
				end := clk.ns()
				workBuf.add(span{name: spGetBatch, parent: spDeliver, parentID: g, start: st, end: now, id: g, n: int32(len(bodies))})
				workBuf.add(span{name: spDeliver, start: st, end: end, id: g, n: int32(len(bodies))})
			}
		}
	}()

	var sn0, sn1 salsa.TelemetrySnapshot
	win := timedWindow(clk.epoch.Add(warmup), rc.seconds, delivered.Load, func(end bool) {
		if end {
			sn1 = l.srv.TelemetrySnapshot()
		} else {
			sn0 = l.srv.TelemetrySnapshot()
		}
	})
	stop.Store(true)
	wg.Wait()
	if prodErr != nil {
		return outcome{}, prodErr
	}
	if workErr != nil {
		return outcome{}, workErr
	}

	v := verify(sent.Load(), led)
	if c := corrupt.Load(); c > 0 {
		v.dup += c
		if v.example == "" {
			v.example = fmt.Sprintf("%d task bodies arrived corrupted", c)
		}
	}
	o := outcome{
		v:           v,
		ledgerBytes: ledgerBytes(led),
		window:      win,
		lat:         summarize(rc.seconds, lat),
		counters:    poolCounters(sn0.Ops, sn1.Ops),
		bufs:        []*spanBuf{prodBuf, workBuf},
	}
	// The shard's own view of its pool, from its telemetry snapshot.
	o.counters["shard.gets"] = float64(sn1.Ops.Gets - sn0.Ops.Gets)
	o.counters["shard.fastpath"] = float64(sn1.Ops.FastPath - sn0.Ops.FastPath)
	o.counters["shard.steals"] = float64(sn1.Ops.Steals - sn0.Ops.Steals)
	o.counters["shard.saturated"] = float64(sn1.RemoteSaturated - sn0.RemoteSaturated)
	o.counters["shard.put_frames"] = float64(sn1.RemoteFrames["PUT_BATCH"] - sn0.RemoteFrames["PUT_BATCH"])
	if rc.trace {
		codec, err := timeCodec(in, clk, o.counters)
		if err != nil {
			return outcome{}, err
		}
		o.bufs = append(o.bufs, codec)
	}
	return o, nil
}

// timeCodec encodes the workload's first batches with AppendPutReq and
// decodes them with DecodeBatch, one span per call, and counts the bytes
// the encoding takes per task.
func timeCodec(in inputs, clk clock, counters map[string]float64) (*spanBuf, error) {
	buf := newSpanBuf(2 * codecBatches * codecPasses)
	backing := make([]byte, loopBatch*loopBodyMax)
	bodies := make([][]byte, loopBatch)
	var enc []byte
	var bytes, tasks int64
	for pass := 0; pass < codecPasses; pass++ {
		for b := int64(0); b < codecBatches; b++ {
			for i := range bodies {
				off := i * loopBodyMax
				bodies[i] = in.body(backing[off:off:off+loopBodyMax], uint64(b*loopBatch+int64(i)))
			}
			id := int64(pass*codecBatches) + b
			st := clk.ns()
			enc = remote.AppendPutReq(enc[:0], remote.PutReq{Token: 1, Seq: uint64(id), B: remote.Batch{Tasks: bodies}})
			mid := clk.ns()
			dec, err := remote.DecodeBatch(enc[16:], remote.KindPutBatch)
			end := clk.ns()
			if err != nil {
				return nil, fmt.Errorf("decode batch %d: %w", b, err)
			}
			if len(dec.Tasks) != loopBatch {
				return nil, fmt.Errorf("decode batch %d: %d tasks, want %d", b, len(dec.Tasks), loopBatch)
			}
			buf.add(span{name: spEncode, start: st, end: mid, id: id, n: loopBatch})
			buf.add(span{name: spDecode, start: mid, end: end, id: id, n: loopBatch})
			if pass == 0 {
				bytes += int64(len(enc))
				tasks += loopBatch
			}
		}
	}
	counters["wire.bytes"] = float64(bytes)
	counters["wire.tasks"] = float64(tasks)
	return buf, nil
}
