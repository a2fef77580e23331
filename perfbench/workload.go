package main

import (
	"fmt"
	"math/rand"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/update"
)

// Fixed shape of every workload. The batch is a NIC descriptor ring's worth
// of headers; the window of in-flight batches stays below the service's
// queue depth so that no submit is ever refused with ErrQueueFull.
const (
	batchSize    = 256
	window       = 4
	queueDepth   = 2 * window
	cacheEntries = 65536
	stride       = 4
	opsPerUpdate = 8
	// matchFraction of generated headers is drawn inside a rule's match
	// region; the rest are uniform and mostly fall to the default rule.
	matchFraction = 0.8
	// oracleSample is how many trace positions of uniform-large are checked
	// against the oracle (each check scans all 65536 rules).
	oracleSample = 1024
)

// workload is one input mix: a ruleset, an engine, a trace and an update
// schedule. Every run replays whole rounds of sliceBatches batches, so two
// runs of a workload differ only in how many rounds fit in their time.
type workload struct {
	name   string
	rules  int    // ruleset size, counting the trailing default rule
	engine string // name handed to cli.BuildEngineOpts
	// incremental routes ApplyOps through the O(delta) path.
	incremental bool
	// flows > 0 draws a Zipf(zipfS) trace with mean burst 4 over that many
	// flows; flows == 0 draws traceLen distinct headers replayed in order.
	flows    int
	traceLen int
	// updateEvery > 0 applies opsPerUpdate rule replacements after every
	// updateEvery-th batch submitted.
	updateEvery  int
	sliceBatches int
	// samples is how many fresh services a run builds, spread over its
	// measured time, for setup_s.
	samples int
}

const zipfS = 1.2

var workloads = []workload{
	{
		name: "zipf-hot", rules: 2048, engine: "stridebv",
		flows: 4096, traceLen: 1 << 17,
		sliceBatches: 256, samples: 40,
	},
	{
		name: "uniform-large", rules: 65536, engine: "part-stridebv",
		traceLen:     1 << 20,
		sliceBatches: 64, samples: 7,
	},
	{
		name: "churn", rules: 2048, engine: "stridebv", incremental: true,
		flows: 4096, traceLen: 1 << 17, updateEvery: 16,
		sliceBatches: 256, samples: 40,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (choose from %v)", name, names)
}

// inputs is everything a run derives from its seed. The service sees only
// rs, the trace and the update ops.
type inputs struct {
	rs    *ruleset.RuleSet
	trace []packet.Header
	// flows are the checked headers and flowOf maps a trace position to
	// its index in flows (-1: unchecked position). Zipf workloads check
	// every position through the flow it belongs to; uniform-large checks
	// a seeded sample.
	flows  []packet.Header
	flowOf []int32
	// opsRules is the ruleset view update ops are drawn from: every rule
	// but the trailing default, so updates never remove the catch-all.
	opsRules *ruleset.RuleSet
	seed     int64
}

func makeInputs(w workload, seed int64) (*inputs, error) {
	rs := ruleset.Generate(ruleset.GenConfig{N: w.rules, Profile: ruleset.PrefixOnly, Seed: seed, DefaultRule: true})
	in := &inputs{rs: rs, opsRules: ruleset.New(rs.Rules[:rs.Len()-1]), seed: seed}
	if w.flows > 0 {
		in.flows = ruleset.FlowHeaders(rs, w.flows, matchFraction, seed+1)
		trace, err := packet.ZipfTrace(in.flows, packet.ZipfTraceConfig{Count: w.traceLen, S: zipfS, MeanBurst: 4, Seed: seed + 2})
		if err != nil {
			return nil, err
		}
		in.trace = trace
		index := make(map[packet.Header]int32, len(in.flows))
		for i := len(in.flows) - 1; i >= 0; i-- {
			index[in.flows[i]] = int32(i)
		}
		in.flowOf = make([]int32, len(trace))
		for i, h := range trace {
			in.flowOf[i] = index[h]
		}
		return in, nil
	}
	in.trace = ruleset.GenerateTrace(rs, ruleset.TraceConfig{Count: w.traceLen, MatchFraction: matchFraction, Seed: seed + 1})
	in.flowOf = make([]int32, len(in.trace))
	for i := range in.flowOf {
		in.flowOf[i] = -1
	}
	rng := rand.New(rand.NewSource(seed + 2))
	for _, pos := range rng.Perm(len(in.trace))[:oracleSample] {
		in.flowOf[pos] = int32(len(in.flows))
		in.flows = append(in.flows, in.trace[pos])
	}
	return in, nil
}

// updateOps returns the k-th update of the run's schedule.
func (in *inputs) updateOps(k int) ([]update.Op, error) {
	return update.GenerateOps(in.opsRules, opsPerUpdate, in.seed*1_000_003+2*int64(k)+7)
}
