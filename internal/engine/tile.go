package engine

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/repro/cobra/internal/xrand"
)

// Tiled dense rounds. The flat dense scan (cobra.go / bips.go) treats the
// frontier bitset as one word array: one goroutine per static chunk, one
// shared atomic next set, and a separate Θ(n) pass afterwards to recount
// the frontier. At 2·10^7 vertices that shape stops scaling — every worker
// streams the whole adjacency range through a shared L3 while the
// per-round goroutine spawns and the recount pass cost allocations and a
// full extra scan.
//
// The tiled path shards a dense round across cache-sized word tiles
// (DefaultTileWords words of 64 vertices each, sized so one tile's bitset
// words plus its slice of the CSR offset array sit inside L2). Tiles are
// pulled off an atomic cursor by a pool of persistent worker goroutines —
// work-stealing granularity without per-round spawns — and every per-tile
// pass fuses its bookkeeping (next-frontier popcount, frontier volume,
// newly-covered count) into the same scan that touches the words, storing
// the partial sums in per-tile scratch. The partials are folded serially
// in ascending tile order after the barrier, so the trajectory and every
// derived statistic stay a pure function of the seed: which worker ran a
// tile is invisible, the fold order is fixed, and the per-(round, vertex)
// draws are the same stateless streams the flat paths consume.
//
// COBRA needs two barriers (pushes cross tile boundaries, so the scan
// phase must complete before the fold phase may claim next words); BIPS
// pulls are tile-local writes, so one phase suffices and the frontier
// swap is a pointer exchange instead of an O(n) copy.
//
// Invariant (zero-after-fold): between tiled COBRA rounds the next sets
// (nextPlain serial, nextAtomic parallel) are all-zero — each fold zeroes
// the words it consumes, and the workspace resets both sets when a kernel
// is (re)acquired, so no round ever pays an up-front Θ(n) Reset.

// DefaultTileWords is the dense tile width in 64-vertex bitset words. One
// tile touches its frontier, next and covered words (3·8 B/word) plus the
// CSR offset entries of its vertices (64·4 B/word), ≈ 280 B/word, so 4096
// words ≈ 1.1 MiB — inside a 2 MiB L2 with room left for the adjacency
// stream. The serial sweep (BenchmarkEngineTileWidth in tile_test.go,
// 2^20-vertex scale-free graph) is flat within noise from 256 to 16384
// words, so the default sits where the per-core working set stays
// L2-resident for the parallel pool without inflating the tile count the
// cursor has to hand out.
const DefaultTileWords = 4096

// Per-worker floor for fanning a round out (see parallelRounds): rounds
// below minParallelItems stay serial outright, and wider rounds use at
// most one worker per minItemsPerWorker items so narrow parallel rounds
// stop losing to serial on spawn-and-barrier overhead. Measured with
// BenchmarkEngineParallelFloor (4096-item sparse round, Chord(2^18, 4)):
// ~75 ns of draw work per item versus ~7 µs of goroutine handoff per
// extra worker, so a worker needs ≈ 100 items just to break even and
// 1024 to make the detour clearly worthwhile.
const (
	minParallelItems  = 2048
	minItemsPerWorker = 1024
)

// tileJob selects which per-tile pass a pool worker runs.
type tileJob int

const (
	jobCobraScan tileJob = iota // draw pushes into nextAtomic
	jobCobraFold                // claim next words into cur/covered, count
	jobBipsScan                 // re-decide a tile's vertices, count
)

// roundPool is a set of persistent worker goroutines shared by every
// parallel tiled round of a kernel (or of all kernels backed by one
// workspace). Spawning goroutines per round allocates their closures on
// every round; the pool spawns once and parks workers on an unbuffered
// channel, so steady-state rounds are allocation-free. run is only ever
// called from the kernel's owner goroutine (kernels are single-owner), so
// the job fields need no lock: the channel sends publish them and the
// WaitGroup barrier collects the results.
type roundPool struct {
	spawned int
	work    chan int      // worker ids for the current pass
	quit    chan struct{} // closed by the owner's finalizer
	kern    *Kernel
	job     tileJob
	wg      sync.WaitGroup
}

func newRoundPool() *roundPool {
	return &roundPool{work: make(chan int), quit: make(chan struct{})}
}

func (p *roundPool) worker() {
	for {
		select {
		case w := <-p.work:
			p.kern.runTileJob(p.job, w)
			p.wg.Done()
		case <-p.quit:
			return
		}
	}
}

// run executes one pass: nw workers drain the kernel's tile cursor.
func (p *roundPool) run(k *Kernel, job tileJob, nw int) {
	for p.spawned < nw {
		go p.worker()
		p.spawned++
	}
	k.tileCur = 0
	p.kern, p.job = k, job
	p.wg.Add(nw)
	for w := 0; w < nw; w++ {
		p.work <- w
	}
	p.wg.Wait()
	p.kern = nil
}

// stop releases the pool's goroutines; registered as the finalizer of the
// pool's owner (a fresh Kernel or a Workspace).
func (p *roundPool) stop() { close(p.quit) }

func (k *Kernel) runTileJob(job tileJob, w int) {
	switch job {
	case jobCobraScan:
		k.sentParts[w] = k.cobraTileScanAtomic()
	case jobCobraFold:
		k.cobraTileFold(true)
	default:
		k.bipsTileScan()
	}
}

// tileSpan returns tile t's backing-word range [lo, hi).
func (k *Kernel) tileSpan(t int) (lo, hi int) {
	lo = t * k.tileWords
	hi = lo + k.tileWords
	if nw := k.cur.WordCount(); hi > nw {
		hi = nw
	}
	return lo, hi
}

// nextTile claims the next unprocessed tile index, or -1 when drained.
func (k *Kernel) nextTile() int {
	t := int(atomic.AddInt64(&k.tileCur, 1)) - 1
	if t >= k.tiles {
		return -1
	}
	return t
}

// cobraDenseTiled runs one COBRA round over word tiles: a scan phase that
// draws every frontier vertex's pushes, a barrier, then a fold phase that
// claims the next words into cur, folds them into covered, and fuses the
// per-tile frontier/volume/newly-covered counts. The per-tile partials are
// folded serially in ascending tile order.
func (k *Kernel) cobraDenseTiled() {
	nw := k.parallelRounds(k.frontierN)
	if nw > k.tiles {
		nw = k.tiles
	}
	var sent int64
	if nw <= 1 {
		sent = k.cobraTileScanPlain()
		k.tileCur = 0
		k.cobraTileFold(false)
	} else {
		k.pool.run(k, jobCobraScan, nw)
		for w := 0; w < nw; w++ {
			sent += k.sentParts[w]
		}
		k.pool.run(k, jobCobraFold, nw)
	}
	frontierN, newCov := 0, 0
	vol := 0
	for t := 0; t < k.tiles; t++ {
		frontierN += int(k.tileN[t])
		vol += int(k.tileVol[t])
		newCov += int(k.tileNew[t])
	}
	k.frontierN = frontierN
	k.frontierVol = vol
	k.nCov += newCov
	k.sent += sent
	k.coalesced += sent - int64(frontierN)
	k.curListOK = false
	k.volOK = true
}

// cobraTileScanPlain is the serial scan phase: tiles in cursor order on
// the calling goroutine, pushes into the plain next set (zero on entry by
// the zero-after-fold invariant).
func (k *Kernel) cobraTileScanPlain() int64 {
	k.tileCur = 0
	var sent int64
	for {
		t := k.nextTile()
		if t < 0 {
			return sent
		}
		lo, hi := k.tileSpan(t)
		for wi := lo; wi < hi; wi++ {
			word := k.cur.Word(wi)
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
	}
}

// cobraTileScanAtomic is the pool-worker scan phase: identical draws, but
// only pushes that cross the tile boundary pay for the atomic next set.
// Targets inside the scanned tile land in the plain next set — the scanning
// worker owns the tile's words until the barrier, so those stores are
// race-free — which makes rounds on locally-connected graphs (grids, tori,
// circulants) almost entirely lock-free. The fold ORs both sets back
// together.
func (k *Kernel) cobraTileScanAtomic() int64 {
	var sent int64
	for {
		t := k.nextTile()
		if t < 0 {
			return sent
		}
		lo, hi := k.tileSpan(t)
		vlo, vhi := lo*64, hi*64
		for wi := lo; wi < hi; wi++ {
			word := k.cur.Word(wi)
			base := wi * 64
			for word != 0 {
				v := base + bits.TrailingZeros64(word)
				word &= word - 1
				if k.prefix {
					if t1, t2, ok := k.cobraPrefix(v); ok {
						k.tilePush(t1, vlo, vhi)
						k.tilePush(t2, vlo, vhi)
						sent += int64(k.par.Branch)
						continue
					}
				}
				rng := xrand.StreamValue(k.seed, streamKey(k.round, v))
				b := k.drawCount(&rng)
				deg := k.g.Degree(v)
				for i := 0; i < b; i++ {
					k.tilePush(k.drawTarget(v, deg, &rng), vlo, vhi)
				}
				sent += int64(b)
			}
		}
	}
}

// tilePush records a pool-worker push: plain for targets inside the
// scanned tile's vertex range [vlo, vhi), atomic for the rest.
func (k *Kernel) tilePush(t, vlo, vhi int) {
	if t >= vlo && t < vhi {
		k.nextPlain.Set(t)
	} else {
		k.nextAtomic.Set(t)
	}
}

// cobraTileFold is the fold phase: for every word of its claimed tiles it
// moves the next word into cur (zeroing the source, restoring the
// zero-after-fold invariant), ORs it into covered, and accumulates the
// tile's next-frontier popcount, frontier volume and newly-covered count
// into the per-tile scratch. Tiles own disjoint word ranges, so all writes
// are race-free without atomics on cur/covered.
func (k *Kernel) cobraTileFold(fromAtomic bool) {
	for {
		t := k.nextTile()
		if t < 0 {
			return
		}
		lo, hi := k.tileSpan(t)
		var tn, tnew int32
		var tvol int64
		for wi := lo; wi < hi; wi++ {
			w := k.nextPlain.Word(wi)
			if w != 0 {
				k.nextPlain.SetWord(wi, 0)
			}
			if fromAtomic {
				if aw := k.nextAtomic.Word(wi); aw != 0 {
					k.nextAtomic.ClearWord(wi)
					w |= aw
				}
			}
			k.cur.SetWord(wi, w)
			if w == 0 {
				continue
			}
			old := k.covered.Word(wi)
			if newBits := w &^ old; newBits != 0 {
				k.covered.SetWord(wi, old|w)
				tnew += int32(bits.OnesCount64(newBits))
			}
			tn += int32(bits.OnesCount64(w))
			base := wi * 64
			for bw := w; bw != 0; bw &= bw - 1 {
				tvol += int64(k.g.Degree(base + bits.TrailingZeros64(bw)))
			}
		}
		k.tileN[t], k.tileVol[t], k.tileNew[t] = tn, tvol, tnew
	}
}

// bipsDenseTiled runs one BIPS round over vertex tiles. Every pull reads
// the (immutable this round) current set and writes only its own tile's
// next words, so a single phase suffices; the frontier swap afterwards is
// a pointer exchange, and the fused per-tile counts make FrontierVolume
// O(1) without rebuilding the member mirror.
func (k *Kernel) bipsDenseTiled() {
	nw := k.parallelRounds(k.g.N())
	if nw > k.tiles {
		nw = k.tiles
	}
	if nw <= 1 {
		k.tileCur = 0
		k.bipsTileScan()
	} else {
		k.pool.run(k, jobBipsScan, nw)
	}
	k.cur, k.nextPlain = k.nextPlain, k.cur
	frontierN := 0
	vol := 0
	for t := 0; t < k.tiles; t++ {
		frontierN += int(k.tileN[t])
		vol += int(k.tileVol[t])
	}
	k.frontierN = frontierN
	k.frontierVol = vol
	k.curListOK = false
	k.volOK = true
}

// bipsTileScan re-decides the vertices of its claimed tiles, assembling
// each next word from its 64 decisions without a data-dependent branch
// (the store overwrites what the swap left behind), and fuses the tile's
// frontier count and volume into the scratch.
func (k *Kernel) bipsTileScan() {
	n := k.g.N()
	cur := k.cur.Words()
	for {
		t := k.nextTile()
		if t < 0 {
			return
		}
		lo, hi := k.tileSpan(t)
		var tn int32
		var tvol int64
		for wi := lo; wi < hi; wi++ {
			base := wi * 64
			uhi := base + 64
			if uhi > n {
				uhi = n
			}
			var next uint64
			for u := base; u < uhi; u++ {
				hit := k.bipsHit(u, cur)
				next |= hit << uint(u-base)
				tvol += int64(hit) * int64(k.g.Degree(u))
			}
			k.nextPlain.SetWord(wi, next)
			tn += int32(bits.OnesCount64(next))
		}
		k.tileN[t], k.tileVol[t] = tn, tvol
	}
}

// attachPool wires the persistent round pool into a kernel that can run
// parallel tiled rounds. Workspace-backed kernels share the workspace's
// pool (spawned goroutines amortise across every trial it backs); a fresh
// kernel owns its own. Either owner's finalizer releases the goroutines.
func (k *Kernel) attachPool(ws *Workspace) {
	if ws != nil {
		if ws.pool == nil {
			ws.pool = newRoundPool()
			runtime.SetFinalizer(ws, func(w *Workspace) { w.pool.stop() })
		}
		k.pool = ws.pool
		return
	}
	k.pool = newRoundPool()
	runtime.SetFinalizer(k, func(k2 *Kernel) { k2.pool.stop() })
}
