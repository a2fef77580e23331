package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pktclass/internal/serve"
	"pktclass/internal/update"
)

// client is the closed-loop load generator: one goroutine keeps window
// batches in flight and submits the next batch as soon as the oldest one
// completes, like a NIC descriptor ring refilled on completion. Rule
// updates follow a batch-count schedule, so every round does the same work.
type client struct {
	svc *serve.Service
	w   workload
	in  *inputs
	chk *checker
	// spans, when set, records a span around every Submit and Wait.
	spans *spanLog

	pos  int // trace offset of the next batch
	ring [window]inflight
	recs []batchRec

	batches, updates opCount
	// batchUS and updateMS collect latencies until the caller takes them.
	batchUS  []float64
	updateMS []float64
	// submitNS and waitNS are filled on traced runs only.
	submitNS []float64
	waitNS   []float64
	// countAllocs sums the heap allocations made inside rounds' timed
	// regions into mallocs and allocBytes.
	countAllocs         bool
	mallocs, allocBytes uint64
}

// opCount counts one kind of operation.
type opCount struct{ attempted, failed int64 }

type inflight struct {
	p   *serve.Pending
	t0  time.Time
	rec int
	// span is the batch's span id on traced runs.
	span int32
}

// batchRec is one submitted batch, kept until its round is checked.
type batchRec struct {
	off int // trace offset of its first header
	// epoch is the number of this round's updates that had returned when
	// the batch was submitted.
	epoch int
	res   []int
}

func newClient(svc *serve.Service, w workload, in *inputs, chk *checker) *client {
	return &client{svc: svc, w: w, in: in, chk: chk}
}

// roundOps draws the updates one round of w applies.
func roundOps(w workload, in *inputs, chk *checker) ([][]update.Op, error) {
	if w.updateEvery == 0 {
		return nil, nil
	}
	ops := make([][]update.Op, w.sliceBatches/w.updateEvery)
	for i := range ops {
		o, err := in.updateOps(chk.updates + i)
		if err != nil {
			return nil, err
		}
		ops[i] = o
	}
	return ops, nil
}

// round runs one fixed-work slice of sliceBatches batches, drains the
// window, then checks every result of the slice against the oracle. It
// returns the slice's wall time, excluding the check.
func (c *client) round() (time.Duration, error) {
	ops, err := roundOps(c.w, c.in, c.chk)
	if err != nil {
		return 0, err
	}
	var ms runtime.MemStats
	if c.countAllocs {
		runtime.ReadMemStats(&ms)
		c.mallocs -= ms.Mallocs
		c.allocBytes -= ms.TotalAlloc
	}
	var applied [][]update.Op
	c.recs = c.recs[:0]
	head, n, epoch := 0, 0, 0
	start := time.Now()
	for b := 0; b < c.w.sliceBatches; b++ {
		if n == window {
			c.complete(&c.ring[head])
			head = (head + 1) % window
			n--
		}
		if c.submit(epoch, &c.ring[(head+n)%window]) {
			n++
		}
		if c.w.updateEvery > 0 && (b+1)%c.w.updateEvery == 0 {
			o := ops[(b+1)/c.w.updateEvery-1]
			if c.apply(o) {
				applied = append(applied, o)
				epoch++
			}
		}
	}
	for ; n > 0; n-- {
		c.complete(&c.ring[head])
		head = (head + 1) % window
	}
	elapsed := time.Since(start)
	if c.countAllocs {
		runtime.ReadMemStats(&ms)
		c.mallocs += ms.Mallocs
		c.allocBytes += ms.TotalAlloc
	}
	c.chk.round(c.recs, applied, len(ops))
	return elapsed, nil
}

// submit hands the next batch to the service; it reports whether the
// batch is now in flight.
func (c *client) submit(epoch int, slot *inflight) bool {
	hdrs := c.in.trace[c.pos : c.pos+batchSize]
	off := c.pos
	c.pos = (c.pos + batchSize) % len(c.in.trace)
	c.batches.attempted++
	var s0 int64
	if c.spans != nil {
		s0 = c.spans.now()
	}
	t0 := time.Now()
	p, err := c.svc.Submit(hdrs)
	if c.spans != nil {
		d := time.Since(t0)
		c.submitNS = append(c.submitNS, float64(d))
		slot.span = c.spans.open()
		c.spans.add("serve.submit", slot.span, s0, s0+int64(d), batchSize)
	}
	if err != nil {
		c.batches.failed++
		logf("submit at trace offset %d: %v", off, err)
		if c.spans != nil {
			c.spans.close(slot.span, "serve.batch", -1, s0, c.spans.now(), batchSize)
		}
		return false
	}
	c.recs = append(c.recs, batchRec{off: off, epoch: epoch})
	*slot = inflight{p: p, t0: t0, rec: len(c.recs) - 1, span: slot.span}
	return true
}

func (c *client) complete(f *inflight) {
	w0 := time.Now()
	res, err := f.p.Wait(context.Background())
	end := time.Now()
	c.batchUS = append(c.batchUS, float64(end.Sub(f.t0))/1e3)
	if c.spans != nil {
		c.waitNS = append(c.waitNS, float64(end.Sub(w0)))
		e := c.spans.now()
		c.spans.add("serve.wait", f.span, e-int64(end.Sub(w0)), e, batchSize)
		c.spans.close(f.span, "serve.batch", -1, e-int64(end.Sub(f.t0)), e, batchSize)
	}
	if err != nil {
		c.batches.failed++
		logf("wait: %v", err)
		return
	}
	c.recs[f.rec].res = res
}

// apply runs one scheduled update; it reports whether the update took.
func (c *client) apply(ops []update.Op) bool {
	c.updates.attempted++
	t0 := time.Now()
	err := c.svc.ApplyOps(ops)
	c.updateMS = append(c.updateMS, float64(time.Since(t0))/1e6)
	if err != nil {
		c.updates.failed++
		logf("update: %v", err)
		return false
	}
	return true
}

// release drops the results and latencies the client holds, so that a
// heap reading after it counts the service alone.
func (c *client) release() {
	c.ring = [window]inflight{}
	c.recs = nil
	c.batchUS, c.updateMS = nil, nil
	c.submitNS, c.waitNS = nil, nil
}

// checker holds the oracle's view of the live ruleset and checks each
// round's results against it.
type checker struct {
	in  *inputs
	orc *oracle
	// tab is the winning rule of every checked flow under the live rules.
	tab  []int32
	bufs [][]int32
	tabs [][]int32
	// updates counts the scheduled updates drawn so far, applied or not.
	updates int
	checked int64
	err     error
}

func newChecker(w workload, in *inputs) *checker {
	orc := newOracle(in.rs)
	k := &checker{in: in, orc: orc, tab: orc.table(in.flows)}
	// The tables of a round's epochs are allocated once, up front.
	if w.updateEvery > 0 {
		n := w.sliceBatches / w.updateEvery
		for i := 0; i < n; i++ {
			k.bufs = append(k.bufs, make([]int32, len(k.tab)))
		}
		k.tabs = make([][]int32, 0, n+1)
	}
	return k
}

// ok reports whether results were checked and all of them agreed.
func (k *checker) ok() bool {
	if k.err != nil {
		logf("check failed: %v", k.err)
	}
	return k.err == nil && k.checked > 0
}

func (k *checker) fail(err error) {
	if k.err == nil {
		k.err = err
	}
}

// round checks one round's batches. applied holds the updates that took,
// in order; drawn is how many the round drew from the schedule. A batch
// submitted after e updates returned must carry, for every checked header,
// the winner under the rules of epoch e, or, when the next update began
// while it was in flight, all winners under epoch e+1: a batch is
// classified by one engine. With the trailing default rule no result may
// be -1.
func (k *checker) round(recs []batchRec, applied [][]update.Op, drawn int) {
	k.updates += drawn
	for len(k.bufs) < len(applied) {
		k.bufs = append(k.bufs, make([]int32, len(k.tab)))
	}
	prev := k.tab
	tabs := append(k.tabs[:0], prev)
	for e, ops := range applied {
		next := k.bufs[e]
		copy(next, prev)
		for _, op := range ops {
			k.orc.replace(op.Index, op.Rule, k.in.flows, next)
		}
		tabs = append(tabs, next)
		prev = next
	}
	k.tabs = tabs
	for _, r := range recs {
		if r.res == nil {
			continue
		}
		for i, got := range r.res {
			if got < 0 {
				k.fail(fmt.Errorf("trace position %d classified -1 despite the default rule", r.off+i))
				return
			}
		}
		if k.agrees(r, tabs[r.epoch]) || (r.epoch+1 < len(tabs) && k.agrees(r, tabs[r.epoch+1])) {
			for i := range r.res {
				if k.in.flowOf[r.off+i] >= 0 {
					k.checked++
				}
			}
			continue
		}
		k.fail(k.mismatch(r, tabs[r.epoch]))
		return
	}
	copy(k.tab, prev)
}

func (k *checker) agrees(r batchRec, tab []int32) bool {
	for i, got := range r.res {
		if f := k.in.flowOf[r.off+i]; f >= 0 {
			if int32(got) != tab[f] {
				return false
			}
		}
	}
	return true
}

func (k *checker) mismatch(r batchRec, tab []int32) error {
	for i, got := range r.res {
		if f := k.in.flowOf[r.off+i]; f >= 0 && int32(got) != tab[f] {
			return fmt.Errorf("trace position %d (%v): service says rule %d, oracle says %d", r.off+i, k.in.trace[r.off+i], got, tab[f])
		}
	}
	return fmt.Errorf("batch at trace offset %d mixes two rule generations", r.off)
}
