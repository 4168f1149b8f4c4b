package engine

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/repro/cobra/internal/bitset"
	"github.com/repro/cobra/internal/xrand"
)

// COBRA round kernels. One round: every vertex of C_t pushes b (or b+1
// with probability Rho) particles to uniform random neighbours — to itself
// with probability 1/2 per particle under Lazy — and the targets form
// C_{t+1}. Multiple arrivals coalesce via set semantics.
//
// The draw structure per vertex (fractional-branch Bernoulli first, then
// per-particle lazy coin and neighbour index) is fixed across all four
// paths below, so every representation consumes the (round, vertex) stream
// identically and the trajectories agree bit for bit.

// drawCount draws the number of particles v sends this round.
func (k *Kernel) drawCount(rng *xrand.RNG) int {
	b := k.par.Branch
	if k.par.Rho > 0 && rng.Bernoulli(k.par.Rho) {
		b++
	}
	return b
}

// drawTarget draws one particle target for v.
func (k *Kernel) drawTarget(v, deg int, rng *xrand.RNG) int {
	if k.par.Lazy && rng.Bool() {
		return v
	}
	return k.g.Neighbor(v, rng.Intn(deg))
}

// cobraSparse runs one round over the active-vertex slice, deduplicating
// the next frontier with the stamp array. No Θ(n) work anywhere.
func (k *Kernel) cobraSparse() {
	if !k.curListOK {
		k.ensureList()
	}
	k.bumpEpoch()
	k.newList = k.newList[:0]
	var sent int64
	if nw := k.parallelRounds(len(k.curList)); nw <= 1 {
		for _, v32 := range k.curList {
			v := int(v32)
			if k.prefix {
				if t1, t2, ok := k.cobraPrefix(v); ok {
					k.stampPush(t1)
					k.stampPush(t2)
					sent += int64(k.par.Branch)
					continue
				}
			}
			rng := xrand.StreamValue(k.seed, streamKey(k.round, v))
			b := k.drawCount(&rng)
			deg := k.g.Degree(v)
			for i := 0; i < b; i++ {
				k.stampPush(k.drawTarget(v, deg, &rng))
			}
			sent += int64(b)
		}
	} else {
		sent = k.cobraSparseParallel(nw)
	}
	// Maintain the authoritative bitset incrementally and fold the new
	// frontier into the covered set: O(|old| + |new|), not O(n).
	for _, v := range k.curList {
		k.cur.Clear(int(v))
	}
	vol := 0
	for _, w32 := range k.newList {
		w := int(w32)
		k.cur.Set(w)
		vol += k.g.Degree(w)
		if !k.covered.Contains(w) {
			k.covered.Set(w)
			k.nCov++
		}
	}
	k.sent += sent
	k.coalesced += sent - int64(len(k.newList))
	k.frontierN = len(k.newList)
	k.frontierVol = vol
	k.curList, k.newList = k.newList, k.curList
	k.curListOK = true
	k.volOK = true
}

// cobraSparseParallel fans the active slice across workers; next-frontier
// membership is claimed with CAS stamps and each claimer records its wins
// in a worker-local buffer, so no Θ(n) scan is needed to collect members.
// Which worker wins a contended claim is scheduling-dependent, but the
// claimed set — the only observable — is not.
func (k *Kernel) cobraSparseParallel(nw int) int64 {
	var wg sync.WaitGroup
	chunk := (len(k.curList) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		if lo >= len(k.curList) {
			k.bufs[w] = k.bufs[w][:0]
			k.sentParts[w] = 0
			continue
		}
		hi := lo + chunk
		if hi > len(k.curList) {
			hi = len(k.curList)
		}
		wg.Add(1)
		go func(w int, verts []int32) {
			defer wg.Done()
			buf := k.bufs[w][:0]
			var sent int64
			for _, v32 := range verts {
				v := int(v32)
				if k.prefix {
					if t1, t2, ok := k.cobraPrefix(v); ok {
						if k.claimStamp(t1) {
							buf = append(buf, int32(t1))
						}
						if k.claimStamp(t2) {
							buf = append(buf, int32(t2))
						}
						sent += int64(k.par.Branch)
						continue
					}
				}
				rng := xrand.StreamValue(k.seed, streamKey(k.round, v))
				b := k.drawCount(&rng)
				deg := k.g.Degree(v)
				for i := 0; i < b; i++ {
					t := k.drawTarget(v, deg, &rng)
					if k.claimStamp(t) {
						buf = append(buf, int32(t))
					}
				}
				sent += int64(b)
			}
			k.bufs[w] = buf
			k.sentParts[w] = sent
		}(w, k.curList[lo:hi])
	}
	wg.Wait()
	var sent int64
	for w := 0; w < nw; w++ {
		k.newList = append(k.newList, k.bufs[w]...)
		sent += k.sentParts[w]
	}
	return sent
}

// stampPush adds t to the serial sparse next frontier unless this round
// already stamped it.
func (k *Kernel) stampPush(t int) {
	if k.stamp[t] != k.epoch {
		k.stamp[t] = k.epoch
		k.newList = append(k.newList, int32(t))
	}
}

// claimStamp marks t in the current stamp generation; true if this caller
// won the claim.
func (k *Kernel) claimStamp(t int) bool {
	addr := &k.stamp[t]
	for {
		old := atomic.LoadUint32(addr)
		if old == k.epoch {
			return false
		}
		if atomic.CompareAndSwapUint32(addr, old, k.epoch) {
			return true
		}
	}
}

// cobraDense runs one round as a word-level scan of the frontier bitset:
// the word fetch is hoisted and up to 64 active vertices are decoded per
// fetched word, with no member slice materialised in either direction.
func (k *Kernel) cobraDense() {
	words := k.cur.Words()
	var sent int64
	var next *bitset.Set
	if nw := k.parallelRounds(k.frontierN); nw <= 1 {
		k.nextPlain.Reset()
		for wi, word := range words {
			base := wi * 64
			for word != 0 {
				v := base + bits.TrailingZeros64(word)
				word &= word - 1
				if k.prefix {
					if t1, t2, ok := k.cobraPrefix(v); ok {
						k.nextPlain.Set(t1)
						k.nextPlain.Set(t2)
						sent += int64(k.par.Branch)
						continue
					}
				}
				rng := xrand.StreamValue(k.seed, streamKey(k.round, v))
				b := k.drawCount(&rng)
				deg := k.g.Degree(v)
				for i := 0; i < b; i++ {
					k.nextPlain.Set(k.drawTarget(v, deg, &rng))
				}
				sent += int64(b)
			}
		}
		next = k.nextPlain
	} else {
		sent = k.cobraDenseParallel(words, nw)
		k.nextAtomic.Snapshot(k.scratch)
		next = k.scratch
	}
	k.cur.CopyFrom(next)
	k.frontierN = k.cur.Count()
	k.nCov += k.covered.UnionCount(k.cur)
	k.sent += sent
	k.coalesced += sent - int64(k.frontierN)
	k.curListOK = false
	k.volOK = false
}

// cobraDenseParallel splits the word array across workers; targets land in
// the atomic next set since pushes cross chunk boundaries.
func (k *Kernel) cobraDenseParallel(words []uint64, nw int) int64 {
	k.nextAtomic.Reset()
	var wg sync.WaitGroup
	chunk := (len(words) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo := w * chunk
		if lo >= len(words) {
			k.sentParts[w] = 0
			continue
		}
		hi := lo + chunk
		if hi > len(words) {
			hi = len(words)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var sent int64
			for wi := lo; wi < hi; wi++ {
				word := words[wi]
				base := wi * 64
				for word != 0 {
					v := base + bits.TrailingZeros64(word)
					word &= word - 1
					if k.prefix {
						if t1, t2, ok := k.cobraPrefix(v); ok {
							k.nextAtomic.Set(t1)
							k.nextAtomic.Set(t2)
							sent += int64(k.par.Branch)
							continue
						}
					}
					rng := xrand.StreamValue(k.seed, streamKey(k.round, v))
					b := k.drawCount(&rng)
					deg := k.g.Degree(v)
					for i := 0; i < b; i++ {
						k.nextAtomic.Set(k.drawTarget(v, deg, &rng))
					}
					sent += int64(b)
				}
			}
			k.sentParts[w] = sent
		}(w, lo, hi)
	}
	wg.Wait()
	var sent int64
	for w := 0; w < nw; w++ {
		sent += k.sentParts[w]
	}
	return sent
}
