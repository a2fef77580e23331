package main

import (
	"pktclass/internal/packet"
	"pktclass/internal/ruleset"
)

// The oracle is the benchmark's own reference classifier: a first-match
// scan over each rule's fields turned into inclusive intervals. It shares
// no matching code with the program (ruleset.FirstMatch, Rule.Matches,
// core.Linear), so a fault there cannot hide a fault in the engines.

type oracleRule struct {
	sipLo, sipHi uint32
	dipLo, dipHi uint32
	spLo, spHi   uint16
	dpLo, dpHi   uint16
	proto, pmask uint8
}

// prefixInterval turns a 32-bit prefix into the addresses it covers.
func prefixInterval(value uint32, length int) (lo, hi uint32) {
	if length <= 0 {
		return 0, ^uint32(0)
	}
	mask := ^uint32(0) << (32 - length)
	return value & mask, value | ^mask
}

func compileRule(r ruleset.Rule) oracleRule {
	o := oracleRule{
		spLo: r.SP.Lo, spHi: r.SP.Hi,
		dpLo: r.DP.Lo, dpHi: r.DP.Hi,
		proto: r.Proto.Value & r.Proto.Mask, pmask: r.Proto.Mask,
	}
	o.sipLo, o.sipHi = prefixInterval(r.SIP.Value, r.SIP.Len)
	o.dipLo, o.dipHi = prefixInterval(r.DIP.Value, r.DIP.Len)
	return o
}

func (o *oracleRule) covers(h *packet.Header) bool {
	return h.SIP >= o.sipLo && h.SIP <= o.sipHi &&
		h.DIP >= o.dipLo && h.DIP <= o.dipHi &&
		h.SP >= o.spLo && h.SP <= o.spHi &&
		h.DP >= o.dpLo && h.DP <= o.dpHi &&
		h.Proto&o.pmask == o.proto
}

type oracle struct{ rules []oracleRule }

func newOracle(rs *ruleset.RuleSet) *oracle {
	o := &oracle{rules: make([]oracleRule, rs.Len())}
	for i, r := range rs.Rules {
		o.rules[i] = compileRule(r)
	}
	return o
}

// firstMatchFrom returns the lowest rule index >= from covering h, or -1.
func (o *oracle) firstMatchFrom(h packet.Header, from int) int32 {
	for i := from; i < len(o.rules); i++ {
		if o.rules[i].covers(&h) {
			return int32(i)
		}
	}
	return -1
}

// table returns the winning rule of every flow.
func (o *oracle) table(flows []packet.Header) []int32 {
	t := make([]int32, len(flows))
	for f, h := range flows {
		t[f] = o.firstMatchFrom(h, 0)
	}
	return t
}

// replace swaps rule j for r and brings the flow table t up to date
// without rescanning flows the replacement cannot affect: a flow won by a
// rule above j keeps its winner, a flow won below j (or by none) is taken
// by j only if r covers it, and a flow j used to win is rescanned from j.
func (o *oracle) replace(j int, r ruleset.Rule, flows []packet.Header, t []int32) {
	o.rules[j] = compileRule(r)
	nr := &o.rules[j]
	for f := range flows {
		switch w := t[f]; {
		case w < 0 || int32(j) < w:
			if nr.covers(&flows[f]) {
				t[f] = int32(j)
			}
		case int32(j) == w:
			if !nr.covers(&flows[f]) {
				t[f] = o.firstMatchFrom(flows[f], j+1)
			}
		}
	}
}
