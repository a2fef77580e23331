package main

import (
	"math/rand"
	"net/netip"
	"testing"

	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
	"pktclass/internal/update"
)

func ip(s string) uint32 {
	a := netip.MustParseAddr(s).As4()
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// TestOracleTableI checks the oracle on the paper's Table I classifier
// with headers and winning rules worked out by hand.
func TestOracleTableI(t *testing.T) {
	const udp, tcp, icmp = 17, 6, 1
	cases := []struct {
		sip, dip string
		sp, dp   uint16
		proto    uint8
		want     int32
	}{
		{"175.77.88.155", "192.168.0.7", 23, 80, udp, 0},
		{"175.77.88.155", "192.168.0.7", 23, 80, tcp, 5}, // protocol differs
		{"175.77.88.155", "192.168.1.7", 23, 80, udp, 5}, // outside the /24
		{"175.77.88.155", "192.168.0.7", 24, 80, udp, 5}, // source port differs
		{"11.77.88.2", "8.8.8.8", 10, 443, tcp, 1},       // port range low edge
		{"11.77.88.2", "8.8.8.8", 13, 443, tcp, 1},       // port range high edge
		{"11.77.88.2", "8.8.8.8", 14, 443, tcp, 5},       // just past it
		{"20.1.2.3", "35.11.200.1", 5555, 1023, udp, 2},  // any protocol
		{"20.1.2.3", "35.11.200.1", 5555, 1024, udp, 5},  // past the system ports
		{"10.10.255.255", "33.4.5.6", 80, 1024, tcp, 3},  // top of the /16
		{"10.10.1.1", "33.4.5.6", 80, 1023, tcp, 5},      // below the ephemeral range
		{"88.99.1.2", "3.0.0.255", 0, 0, icmp, 4},        // top of the /24
		{"88.99.1.2", "3.0.1.0", 0, 0, icmp, 5},          // one past it
		{"0.0.0.0", "0.0.0.0", 0, 0, 0, 5},               // only the default rule
		{"175.77.88.155", "192.168.0.0", 23, 0, udp, 0},  // bottom of the /24
		{"20.255.255.255", "35.11.0.0", 0, 0, 255, 2},    // top of the /8
		{"255.255.255.255", "255.255.255.255", 65535, 65535, 255, 5},
	}
	o := newOracle(ruleset.SampleRuleSet())
	for _, c := range cases {
		h := packet.Header{SIP: ip(c.sip), DIP: ip(c.dip), SP: c.sp, DP: c.dp, Proto: c.proto}
		if got := o.firstMatchFrom(h, 0); got != c.want {
			t.Errorf("%v: oracle says rule %d, want %d", h, got, c.want)
		}
	}
}

// TestOracleReplace checks that the incremental flow-table update after a
// rule replacement agrees with a full rescan.
func TestOracleReplace(t *testing.T) {
	rs := ruleset.Generate(ruleset.GenConfig{N: 64, Profile: ruleset.PrefixOnly, Seed: 3, DefaultRule: true})
	flows := ruleset.FlowHeaders(rs, 512, matchFraction, 4)
	o := newOracle(rs)
	tab := o.table(flows)
	ops, err := update.GenerateOps(ruleset.New(rs.Rules[:rs.Len()-1]), 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i, op := range ops {
		if i%4 == 0 {
			// Put an earlier rule back so flows also lose their winner.
			op.Rule = rs.Rules[rng.Intn(rs.Len()-1)]
		}
		o.replace(op.Index, op.Rule, flows, tab)
	}
	want := o.table(flows)
	for f := range flows {
		if tab[f] != want[f] {
			t.Fatalf("flow %d: incremental table says %d, rescan says %d", f, tab[f], want[f])
		}
	}
}

// TestCheckerCatchesWrongResults feeds the checker batches with a wrong
// winner, a -1 and a batch mixing two rule generations.
func TestCheckerCatchesWrongResults(t *testing.T) {
	w, err := findWorkload("churn")
	if err != nil {
		t.Fatal(err)
	}
	w.rules, w.flows, w.traceLen = 64, 64, 1024
	in, err := makeInputs(w, 9)
	if err != nil {
		t.Fatal(err)
	}
	// A catch-all at the top takes every flow, so the two generations
	// disagree wherever rule 0 did not already win.
	ops := []update.Op{{Index: 0, Rule: ruleset.NewWildcardRule(ruleset.Action{})}}
	winners := func(tab []int32, off int) []int {
		res := make([]int, batchSize)
		for i := range res {
			res[i] = int(tab[in.flowOf[off+i]])
		}
		return res
	}
	before := newChecker(w, in)
	after := newChecker(w, in)
	after.round(nil, [][]update.Op{ops}, 1)

	good := newChecker(w, in)
	good.round([]batchRec{
		{off: 0, epoch: 0, res: winners(before.tab, 0)},
		{off: batchSize, epoch: 0, res: winners(after.tab, batchSize)},
		{off: 2 * batchSize, epoch: 1, res: winners(after.tab, 2*batchSize)},
	}, [][]update.Op{ops}, 1)
	if !good.ok() {
		t.Fatalf("checker rejected correct results: %v", good.err)
	}

	wrong := winners(before.tab, 0)
	wrong[7]++
	negative := winners(before.tab, 0)
	negative[3] = -1
	old, updated := winners(before.tab, 0), winners(after.tab, 0)
	differs := func(lo, hi int) bool {
		for i := lo; i < hi; i++ {
			if old[i] != updated[i] {
				return true
			}
		}
		return false
	}
	if !differs(0, batchSize/2) || !differs(batchSize/2, batchSize) {
		t.Fatal("the update changes no winner in one half of the batch")
	}
	mixed := append(append([]int(nil), old[:batchSize/2]...), updated[batchSize/2:]...)
	cases := map[string][]int{"wrong winner": wrong, "-1": negative, "mixed generations": mixed}
	for name, res := range cases {
		k := newChecker(w, in)
		k.round([]batchRec{{off: 0, epoch: 0, res: res}}, [][]update.Op{ops}, 1)
		if k.ok() {
			t.Errorf("%s: checker accepted the batch", name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v, want 5.5", m)
	}
	if p := percentile(xs, 99); p != 10 {
		t.Fatalf("p99 = %v, want 10", p)
	}
}
