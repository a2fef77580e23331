package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pktclass/internal/cli"
	"pktclass/internal/core"
	"pktclass/internal/ruleset"
	"pktclass/internal/serve"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildService starts a service over rs the way a user would, timing
// serve.New from the ruleset in hand to the service ready. engineBuild,
// when set, receives the time the engine build took inside it.
func buildService(w workload, rs *ruleset.RuleSet, seed int64, engineBuild *time.Duration) (*serve.Service, time.Duration, error) {
	build := func(rs *ruleset.RuleSet) (core.Engine, error) {
		t0 := time.Now()
		e, err := cli.BuildEngineOpts(rs, w.engine, cli.Options{Stride: stride})
		if engineBuild != nil {
			*engineBuild = time.Since(t0)
		}
		return e, err
	}
	t0 := time.Now()
	svc, err := serve.New(rs, build, serve.Config{
		QueueDepth:   queueDepth,
		CacheEntries: cacheEntries,
		Incremental:  w.incremental,
		Seed:         seed,
	})
	return svc, time.Since(t0), err
}

// freshService builds a service over the run's ruleset from scratch after
// a forced collection and closes it again. It returns serve.New's time and
// the part of it outside the engine build. It collects once more on the
// way out, so that the rounds after it start from the heap they would
// have had without it.
func freshService(w workload, in *inputs) (setup, outside time.Duration, err error) {
	runtime.GC()
	defer runtime.GC()
	var eb time.Duration
	svc, d, err := buildService(w, in.rs, in.seed, &eb)
	if err != nil {
		return 0, 0, fmt.Errorf("setup: %w", err)
	}
	svc.Close(context.Background())
	return d, d - eb, nil
}

// heapInUse is the live heap after a forced collection.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// roundStat is one round's packet rate and batch latencies.
type roundStat struct{ mpps, p50US, p90US float64 }

// measureRounds runs whole rounds for d of round time (at least minRounds
// rounds) and calls between n times between rounds, evenly spread over
// the stretch; time spent in between does not count against d. It returns
// each round's figures and leaves no batch latencies in c.
func measureRounds(c *client, d time.Duration, minRounds, n int, between func() error) ([]roundStat, error) {
	var rounds []roundStat
	var spent time.Duration
	done := 0
	for {
		if done < n && spent >= d*time.Duration(done)/time.Duration(n) {
			if err := between(); err != nil {
				return nil, err
			}
			done++
			continue
		}
		if len(rounds) >= minRounds && spent >= d && done == n {
			return rounds, nil
		}
		t0 := time.Now()
		el, err := c.round()
		if err != nil {
			return nil, err
		}
		spent += time.Since(t0)
		rounds = append(rounds, roundStat{
			mpps:  float64(c.w.sliceBatches*batchSize) / el.Seconds() / 1e6,
			p50US: percentile(c.batchUS, 50),
			p90US: percentile(c.batchUS, 90),
		})
		c.batchUS = c.batchUS[:0]
	}
}

// runBench is the untraced run: set-up, warm-up, then whole fixed-work
// rounds for the run's duration, each checked against the oracle. Fresh
// services for setup_s are built between rounds, spread over the run, so
// that a slow stretch of the machine touches few of them; the time they
// take is added to the run. Every figure is taken per round or per build,
// and the run reports the quartile on the fast side: other tenants of a
// shared machine only ever slow a round or a build down.
func runBench(w workload, in *inputs, seconds int) (result, error) {
	chk := newChecker(w, in)
	base := heapInUse()
	svc, d, err := buildService(w, in.rs, in.seed, nil)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer svc.Close(context.Background())
	setupS := []float64{d.Seconds()}
	c := newClient(svc, w, in, chk)
	if _, err := measureRounds(c, time.Duration(seconds)*time.Second/10, 3, 0, nil); err != nil {
		return result{}, err
	}
	// Only the service's heap counts: drop what the client keeps.
	c.release()
	memMiB := (float64(heapInUse()) - float64(base)) / (1 << 20)
	between := func() error {
		setup, _, err := freshService(w, in)
		setupS = append(setupS, setup.Seconds())
		return err
	}
	rounds, err := measureRounds(c, time.Duration(seconds)*time.Second, 10, w.samples-1, between)
	if err != nil {
		return result{}, err
	}
	var mpps, p50, p90 []float64
	for _, r := range rounds {
		mpps = append(mpps, r.mpps)
		p50 = append(p50, r.p50US)
		p90 = append(p90, r.p90US)
	}
	m := map[string]metric{
		"mpps":         {upperQuartile(mpps), "Mpps"},
		"batch_p50_us": {lowerQuartile(p50), "us"},
		"batch_p90_us": {lowerQuartile(p90), "us"},
		"setup_s":      {lowerQuartile(setupS), "s"},
		"mem_mib":      {memMiB, "MiB"},
	}
	logf("%s: %d rounds; %d batches attempted, %d failed; %d updates attempted, %d failed; %d results checked against the oracle",
		w.name, len(rounds), c.batches.attempted, c.batches.failed, c.updates.attempted, c.updates.failed, chk.checked)
	return result{
		Correct:   chk.ok(),
		Attempted: c.batches.attempted + c.updates.attempted,
		Failed:    c.batches.failed + c.updates.failed,
		Metrics:   m,
	}, nil
}
