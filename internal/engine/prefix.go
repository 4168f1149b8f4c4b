package engine

import "github.com/repro/cobra/internal/xrand"

// Prefix draws. Under non-lazy, Rho = 0, Branch <= 2 parameters — the
// paper's headline b = 2 and every service workload — a vertex consumes at
// most two words of its (round, vertex) stream, one Lemire-bounded
// neighbour index per draw. Those two words are xrand.Prefix's First and
// Second, which cost two and three splitmix64 mixes instead of seeding the
// full four-word generator, and the targets index the CSR arrays directly.
// COBRA paths call cobraPrefix; the BIPS decision (bipsHit in bips.go)
// inlines the same draw.
//
// The prefix is an exact shortcut, not a different stream: a vertex falls
// back to the reference draw (StreamValue + drawCount/drawTarget, starting
// over from its first word) whenever the prefix cannot vouch for the
// reference result — a Lemire low half below the degree, where Uint64n
// may reject and draw again (probability deg/2^64 per draw), or a zero
// seeded state, where Reseed's guard may fire. A vertex's decisions stay a
// pure function of (seed, round, vertex, frontier), so trajectories are
// unchanged and the equivalence suites hold across every path.

// prefixOK reports whether every vertex draws at most two stream words per
// round under par: no Bernoulli extra branch, no lazy coins, b <= 2.
func prefixOK(par Params) bool {
	return !par.Lazy && par.Rho == 0 && par.Branch <= 2
}

// cobraPrefix draws v's pushes from the stream prefix. Under Branch 1 it
// returns t2 == t1: a repeated push is a no-op in every next-set
// representation (bitset or stamp claim), so callers always push both and
// add Branch to the sent count. ok is false when v must take the
// reference draw instead.
func (k *Kernel) cobraPrefix(v int) (t1, t2 int, ok bool) {
	p := xrand.StreamPrefix(k.seed, streamKey(k.round, v))
	lo := k.off[v]
	deg := uint64(k.off[v+1] - lo)
	i1, ok := xrand.Bounded(p.First(), deg)
	if !ok {
		return 0, 0, false
	}
	t1 = int(k.adj[lo+int32(i1)])
	if k.par.Branch == 1 {
		return t1, t1, true
	}
	w, ok := p.Second()
	if !ok {
		return 0, 0, false
	}
	i2, ok := xrand.Bounded(w, deg)
	if !ok {
		return 0, 0, false
	}
	return t1, int(k.adj[lo+int32(i2)]), true
}
