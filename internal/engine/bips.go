package engine

import (
	"sync"

	"github.com/repro/cobra/internal/xrand"
)

// BIPS round kernels. One round: every vertex u pulls b (or b+1 with
// probability Rho) uniform random neighbours — itself with probability 1/2
// per pull under Lazy — and joins A_{t+1} iff some pull lies in A_t; the
// persistent source is always infected. Unlike COBRA the frontier can
// shrink: every vertex re-decides each round.
//
// Only vertices in N(A_t) ∪ {source} — plus A_t itself under Lazy, where a
// self-pull can hit — can possibly join A_{t+1}; every other vertex pulls
// from a set disjoint from A_t and always decides "not infected". The
// sparse path therefore evaluates exactly that candidate superset, in
// Θ(vol(A_t)) work, and agrees bit for bit with the dense Θ(n) scan
// because each vertex's decision is a pure function of its own stream.

// bipsHit reports as 0 or 1 whether u joins the next frontier: the
// persistent source always does, any other vertex iff one of its pulls
// lies in the current infected set, whose words are cur. The 0/1 form
// lets word-scanning callers assemble next words without a branch.
//
// Prefix kernels (prefix.go) draw both pulls from the stream prefix and
// combine them without branching on the first: at mid-epidemic densities
// the early exit is a coin flip the branch predictor loses. The rest take
// the reference draw, whose early exit on the first hit is safe because
// the rest of the stream is never consumed elsewhere.
func (k *Kernel) bipsHit(u int, cur []uint64) uint64 {
	if u == k.source {
		return 1
	}
	if k.prefix {
		p := xrand.StreamPrefix(k.seed, streamKey(k.round, u))
		lo := k.off[u]
		deg := uint64(k.off[u+1] - lo)
		i1, ok := xrand.Bounded(p.First(), deg)
		t := uint32(k.adj[lo+int32(i1)])
		hit := cur[t>>6] >> (t & 63) & 1
		if k.par.Branch == 2 {
			w, ok2 := p.Second()
			i2, ok3 := xrand.Bounded(w, deg)
			t = uint32(k.adj[lo+int32(i2)])
			hit |= cur[t>>6] >> (t & 63) & 1
			ok = ok && ok2 && ok3
		}
		if ok {
			return hit
		}
	}
	rng := xrand.StreamValue(k.seed, streamKey(k.round, u))
	b := k.drawCount(&rng)
	deg := k.g.Degree(u)
	for i := 0; i < b; i++ {
		if k.cur.Contains(k.drawTarget(u, deg, &rng)) {
			return 1
		}
	}
	return 0
}

// bipsSparse evaluates only the candidate superset N(A) ∪ {source}
// (∪ A under Lazy), built by stamping the frontier's neighbourhoods.
func (k *Kernel) bipsSparse() {
	if !k.curListOK {
		k.ensureList()
	}
	k.bumpEpoch()
	k.candList = k.candList[:0]
	if k.stamp[k.source] != k.epoch {
		k.stamp[k.source] = k.epoch
		k.candList = append(k.candList, int32(k.source))
	}
	for _, v32 := range k.curList {
		v := int(v32)
		if k.par.Lazy && k.stamp[v] != k.epoch {
			k.stamp[v] = k.epoch
			k.candList = append(k.candList, v32)
		}
		for _, w := range k.g.Neighbors(v) {
			if k.stamp[w] != k.epoch {
				k.stamp[w] = k.epoch
				k.candList = append(k.candList, w)
			}
		}
	}
	k.newList = k.newList[:0]
	if nw := k.parallelRounds(len(k.candList)); nw <= 1 {
		cur := k.cur.Words()
		for _, u32 := range k.candList {
			if k.bipsHit(int(u32), cur) != 0 {
				k.newList = append(k.newList, u32)
			}
		}
	} else {
		k.bipsEvalParallel(nw)
	}
	// Swap the frontier: clear the old members, set the new. All reads of
	// k.cur above see A_t because newList is built on the side.
	for _, v := range k.curList {
		k.cur.Clear(int(v))
	}
	vol := 0
	for _, w32 := range k.newList {
		w := int(w32)
		k.cur.Set(w)
		vol += k.g.Degree(w)
	}
	k.frontierN = len(k.newList)
	k.frontierVol = vol
	k.curList, k.newList = k.newList, k.curList
	k.curListOK = true
	k.volOK = true
}

// bipsEvalParallel fans candidate decisions across workers into worker-
// local buffers (candidates are distinct, so no claims are needed).
func (k *Kernel) bipsEvalParallel(nw int) {
	cur := k.cur.Words()
	var wg sync.WaitGroup
	chunk := (len(k.candList) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		if lo >= len(k.candList) {
			k.bufs[w] = k.bufs[w][:0]
			continue
		}
		hi := lo + chunk
		if hi > len(k.candList) {
			hi = len(k.candList)
		}
		wg.Add(1)
		go func(w int, cands []int32) {
			defer wg.Done()
			buf := k.bufs[w][:0]
			for _, u32 := range cands {
				u := int(u32)
				if k.bipsHit(u, cur) != 0 {
					buf = append(buf, u32)
				}
			}
			k.bufs[w] = buf
		}(w, k.candList[lo:hi])
	}
	wg.Wait()
	for w := 0; w < nw; w++ {
		k.newList = append(k.newList, k.bufs[w]...)
	}
}

// bipsDense re-decides every vertex in a flat scan. Workers own
// word-aligned vertex ranges, so their writes to the plain next bitset
// touch disjoint words and need no atomics.
func (k *Kernel) bipsDense() {
	n := k.g.N()
	cur := k.cur.Words()
	k.nextPlain.Reset()
	if nw := k.parallelRounds(n); nw <= 1 {
		for u := 0; u < n; u++ {
			if k.bipsHit(u, cur) != 0 {
				k.nextPlain.Set(u)
			}
		}
	} else {
		var wg sync.WaitGroup
		nWords := (n + 63) / 64
		chunkW := (nWords + nw - 1) / nw
		for w := 0; w < nw; w++ {
			lo := w * chunkW * 64
			if lo >= n {
				break
			}
			hi := lo + chunkW*64
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for u := lo; u < hi; u++ {
					if k.bipsHit(u, cur) != 0 {
						k.nextPlain.Set(u)
					}
				}
			}(lo, hi)
		}
		wg.Wait()
	}
	k.cur.CopyFrom(k.nextPlain)
	k.curListOK = false
	k.ensureList() // rebuild members + volume in one scan
	k.frontierN = len(k.curList)
}
