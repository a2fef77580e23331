package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"pktclass/internal/cli"
	"pktclass/internal/core"
	"pktclass/internal/flowcache"
	"pktclass/internal/packet"
	"pktclass/internal/partition"
	"pktclass/internal/ruleset"
	"pktclass/internal/update"
)

// The traced run feeds the workload's headers up a ladder of public entry
// points: the bare engine batch, the partitioned engine, core.NewCached
// over a flowcache.Cache, Service.Classify, then the windowed Submit/Wait
// loop. It records spans around every call from outside the program and
// reads the program's own counters; a layer's time is its spans' time
// minus what its child spans cover. The rungs take turns, one round each,
// so that every rung sees the same stretches of a shared machine and the
// differences between rungs are the layers' own. The partitioning layer
// is climbed on every workload: it is the engine of uniform-large and a
// side rung over the same rules and headers on the flat-engine workloads.

// rung replays whole rounds of the trace through one entry point,
// recording a span named name around each batch.
type rung struct {
	name     string
	w        workload
	in       *inputs
	log      *spanLog
	chk      *checker
	classify func(hdrs []packet.Header, out []int) ([]int, error)
	// apply, when set, runs the workload's update schedule and reports
	// whether an update took.
	apply func([]update.Op) bool

	pos int
	// res holds one round's results until the round is checked.
	res  []int
	recs []batchRec

	pkts, attempted, failed int64
}

func newRung(name string, w workload, in *inputs, log *spanLog, classify func([]packet.Header, []int) ([]int, error)) *rung {
	return &rung{
		name: name, w: w, in: in, log: log, chk: newChecker(w, in), classify: classify,
		res: make([]int, w.sliceBatches*batchSize),
	}
}

// round classifies one round's batches one at a time, then checks them.
func (r *rung) round() error {
	ops, err := roundOps(r.w, r.in, r.chk)
	if err != nil {
		return err
	}
	var applied [][]update.Op
	r.recs = r.recs[:0]
	epoch := 0
	for b := 0; b < r.w.sliceBatches; b++ {
		off := r.pos
		r.pos = (r.pos + batchSize) % len(r.in.trace)
		id := r.log.open()
		r.log.cur.Store(id)
		start := r.log.now()
		res, err := r.classify(r.in.trace[off:off+batchSize], r.res[b*batchSize:(b+1)*batchSize])
		r.log.cur.Store(-1)
		r.log.close(id, r.name, -1, start, r.log.now(), batchSize)
		r.attempted++
		r.pkts += batchSize
		if err != nil {
			r.failed++
			logf("%s: %v", r.name, err)
		} else {
			r.recs = append(r.recs, batchRec{off: off, epoch: epoch, res: res})
		}
		if r.apply != nil && (b+1)%r.w.updateEvery == 0 {
			r.attempted++
			if o := ops[(b+1)/r.w.updateEvery-1]; r.apply(o) {
				applied = append(applied, o)
				epoch++
			} else {
				r.failed++
			}
		}
	}
	r.chk.round(r.recs, applied, len(ops))
	return nil
}

// nsPerPkt is the time of the spans named name, per packet this rung
// classified; self takes the spans' self time instead.
func (r *rung) nsPerPkt(name string, self bool) float64 {
	total, own := r.log.layerTime(name)
	if self {
		total = own
	}
	return float64(total) / float64(r.pkts)
}

// engineUpdater applies update schedules to a bare engine the way the
// service's incremental path does, timing the delta and the scoped verify.
type engineUpdater struct {
	eng              core.Engine
	rs               *ruleset.RuleSet
	seed             int64
	deltaMS, verifyS []float64
}

func (u *engineUpdater) apply(ops []update.Op) (core.Engine, bool) {
	t0 := time.Now()
	rules, entries, err := update.Deltas(ops)
	var eng core.Engine
	if err == nil {
		eng, err = update.ApplyDeltasToEngine(u.eng, rules, entries)
	}
	u.deltaMS = append(u.deltaMS, float64(time.Since(t0))/1e6)
	if err != nil {
		logf("engine delta: %v", err)
		return nil, false
	}
	next, err := update.ApplyToRuleSet(u.rs, ops)
	if err != nil {
		logf("engine delta: %v", err)
		return nil, false
	}
	u.seed++
	t1 := time.Now()
	m := update.VerifyDeltasScoped(eng, u.rs, next, rules, 16, u.seed)
	u.verifyS = append(u.verifyS, float64(time.Since(t1))/1e6)
	if m != nil {
		logf("engine delta verify: %v", m)
		return nil, false
	}
	u.eng, u.rs = eng, next
	return eng, true
}

// buildPartition builds the partitioned engine as cli.BuildEngineOpts
// builds "part-stridebv", with every sub-engine wrapped in a span
// recorder. It returns the engine, the whole build time and the part of
// it spent building sub-engines.
func buildPartition(rs *ruleset.RuleSet, log *spanLog) (*partition.Engine, time.Duration, time.Duration, error) {
	var subs time.Duration
	t0 := time.Now()
	e, err := partition.New(rs, partition.Config{Build: func(sub *ruleset.RuleSet) (core.Engine, error) {
		s0 := time.Now()
		eng, err := cli.BuildEngineOpts(sub, "stridebv", cli.Options{Stride: stride})
		subs += time.Since(s0)
		if err != nil {
			return nil, err
		}
		return &timedEngine{Engine: eng, name: "partition.sub", log: log}, nil
	}})
	return e, time.Since(t0), subs, err
}

func batchFunc(e core.Engine) func([]packet.Header, []int) ([]int, error) {
	return func(h []packet.Header, out []int) ([]int, error) {
		core.ClassifyBatchInto(e, h, out)
		return out, nil
	}
}

func runLadder(w workload, in *inputs, seconds int, out string) (result, error) {
	log := newSpanLog()
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	var attempted, failed int64
	partitioned := w.engine == "part-stridebv"

	// Fresh services give serve.New's time outside the engine build.
	var outside, applyMS []float64
	for k := 0; k < 3; k++ {
		_, o, err := freshService(w, in)
		if err != nil {
			return result{}, err
		}
		outside = append(outside, o.Seconds())
	}
	set("serve.new_s", median(outside), "s")
	svc, _, err := buildService(w, in.rs, in.seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer svc.Close(context.Background())

	var rungs []*rung
	// The bare flat engine.
	var flatRung *rung
	if !partitioned {
		var builds []float64
		var flat core.Engine
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			flat, err = cli.BuildEngineOpts(in.rs, w.engine, cli.Options{Stride: stride})
			if err != nil {
				return result{}, err
			}
			builds = append(builds, time.Since(t0).Seconds())
		}
		set("stridebv.build_s", median(builds), "s")
		flatRung = newRung("stridebv.batch", w, in, log, batchFunc(flat))
		rungs = append(rungs, flatRung)
	}
	// The partitioned engine, its sub-engines recorded.
	part, build, subs, err := buildPartition(in.rs, log)
	if err != nil {
		return result{}, err
	}
	set("partition.build_s", (build - subs).Seconds(), "s")
	if partitioned {
		set("stridebv.build_s", subs.Seconds(), "s")
	}
	partRung := newRung("partition.batch", w, in, log, batchFunc(part))
	rungs = append(rungs, partRung)

	// The flow cache over the service's own engine. On churn the engine
	// takes each scheduled update through its delta path and is re-wrapped
	// under a fresh cache generation, as the service does.
	wrap := func(e core.Engine) core.Engine { return &timedEngine{Engine: e, name: "engine.batch", log: log} }
	cache := flowcache.New(flowcache.Config{Entries: cacheEntries})
	bare := core.Unwrap(svc.Engine())
	cached := core.NewCached(wrap(bare), cache)
	upd := &engineUpdater{eng: bare, rs: in.rs, seed: in.seed}
	cacheRung := newRung("flowcache.batch", w, in, log, func(h []packet.Header, out []int) ([]int, error) {
		cached.ClassifyBatch(h, out)
		return out, nil
	})
	// The service, synchronous and windowed, sharing one checker. On
	// churn both follow the update schedule through ApplyOps.
	syncRung := newRung("serve.classify", w, in, log, func(h []packet.Header, _ []int) ([]int, error) {
		return svc.Classify(context.Background(), h)
	})
	if w.updateEvery > 0 {
		cacheRung.apply = func(ops []update.Op) bool {
			eng, ok := upd.apply(ops)
			if ok {
				cached = core.NewCached(wrap(eng), cache)
			}
			return ok
		}
		syncRung.apply = func(ops []update.Op) bool {
			t0 := time.Now()
			err := svc.ApplyOps(ops)
			applyMS = append(applyMS, float64(time.Since(t0))/1e6)
			if err != nil {
				logf("update: %v", err)
			}
			return err == nil
		}
	}
	rungs = append(rungs, cacheRung, syncRung)

	// The windowed loop takes one untraced and one traced round per turn;
	// allocations are counted in the untraced rounds.
	c := newClient(svc, w, in, syncRung.chk)
	var untraced, traced []float64
	untracedBatches := 0
	windowed := func(withSpans bool) error {
		c.spans, c.countAllocs = nil, !withSpans
		if withSpans {
			c.spans = log
		}
		first := len(c.batchUS)
		el, err := c.round()
		if err != nil {
			return err
		}
		rate := float64(w.sliceBatches*batchSize) / el.Seconds() / 1e6
		if withSpans {
			traced = append(traced, rate)
		} else {
			untraced = append(untraced, rate)
			untracedBatches += len(c.batchUS) - first
		}
		return nil
	}

	cs0, _ := svc.CacheStats()
	fb0 := partition.InlineFallbacks()
	var fbPart int64
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for turn := 0; turn < 3 || time.Now().Before(deadline); turn++ {
		for _, r := range rungs {
			f0 := partition.InlineFallbacks()
			if err := r.round(); err != nil {
				return result{}, err
			}
			if r == partRung {
				fbPart += partition.InlineFallbacks() - f0
			}
		}
		// The service's two rungs read on through one trace position, so
		// neither finds the other's recent headers in the service's cache.
		c.pos = syncRung.pos
		for _, withSpans := range []bool{false, true} {
			if err := windowed(withSpans); err != nil {
				return result{}, err
			}
		}
		syncRung.pos = c.pos
	}
	cs1, _ := svc.CacheStats()

	if partitioned {
		set("stridebv.ns_per_pkt", partRung.nsPerPkt("partition.sub", false), "ns")
		// Counted where the 2 serve workers share the partition pool.
		fbServe := partition.InlineFallbacks() - fb0 - fbPart
		set("partition.inline_fallbacks_per_kbatch", float64(fbServe)/float64(syncRung.attempted+int64(len(c.batchUS)))*1e3, "1/kbatch")
	} else {
		set("stridebv.ns_per_pkt", flatRung.nsPerPkt("stridebv.batch", false), "ns")
		set("partition.inline_fallbacks_per_kbatch", float64(fbPart)/float64(partRung.attempted)*1e3, "1/kbatch")
	}
	set("partition.ns_per_pkt", partRung.nsPerPkt("partition.batch", true), "ns")
	set("flowcache.ns_per_pkt", cacheRung.nsPerPkt("flowcache.batch", true), "ns")
	set("serve.sync_ns_per_pkt", syncRung.nsPerPkt("serve.classify", false)-cacheRung.nsPerPkt("flowcache.batch", false), "ns")
	base, withSpans := median(untraced), median(traced)
	set("serve.async_ns_per_pkt", 1e3/base, "ns")
	set("trace.overhead_pct", (base/withSpans-1)*100, "%")
	set("serve.batch_p99_us", percentile(c.batchUS, 99), "us")
	set("serve.submit_ns", median(c.submitNS), "ns")
	set("serve.wait_us", median(c.waitNS)/1e3, "us")
	set("serve.allocs_per_batch", float64(c.mallocs)/float64(untracedBatches), "count")
	set("serve.alloc_bytes_per_batch", float64(c.allocBytes)/float64(untracedBatches), "B")
	lookups := float64((cs1.Hits - cs0.Hits) + (cs1.Misses - cs0.Misses))
	set("flowcache.hit_ratio", float64(cs1.Hits-cs0.Hits)/lookups, "ratio")
	set("flowcache.evictions_per_kpkt", float64(cs1.Evictions-cs0.Evictions)/lookups*1e3, "1/kpkt")
	set("flowcache.stale_drops_per_kpkt", float64(cs1.StaleDrops-cs0.StaleDrops)/lookups*1e3, "1/kpkt")

	// Where the read loops apply no update, the first updates of the
	// workload's schedule, which no read of this run sees, are applied to
	// the live service and to a copy of its engine once the reads are done.
	// A service that is not Incremental takes them on its rebuild path.
	if w.updateEvery == 0 {
		upd = &engineUpdater{eng: core.Unwrap(svc.Engine()), rs: svc.RuleSet(), seed: in.seed}
		for k := 0; k < 3; k++ {
			ops, err := in.updateOps(k)
			if err != nil {
				return result{}, err
			}
			upd.apply(ops)
			c.apply(ops)
		}
	}
	applyMS = append(applyMS, c.updateMS...)
	set("update.apply_ms", median(applyMS), "ms")
	set("update.delta_ms", median(upd.deltaMS), "ms")
	set("update.verify_ms", median(upd.verifyS), "ms")
	cn := svc.Counters()
	set("update.incremental_swaps", float64(cn.IncrementalSwaps), "count")
	set("update.fallbacks", float64(cn.IncrementalFallbacks), "count")
	set("update.rollbacks", float64(cn.IncrementalRollbacks), "count")
	set("serve.queue_high_water", float64(cn.QueueHighWater), "count")

	ok := c.chk.ok()
	attempted += c.batches.attempted + c.updates.attempted
	failed += c.batches.failed + c.updates.failed
	for _, r := range rungs {
		attempted += r.attempted
		failed += r.failed
		ok = r.chk.ok() && ok
	}
	path := filepath.Join(out, fmt.Sprintf("%s-seed%d.tsv.gz", w.name, in.seed))
	if err := log.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	logf("%s: %d spans written to %s", w.name, log.len(), path)
	return result{Correct: ok, Attempted: attempted, Failed: failed, Metrics: m}, nil
}
