package flit

// Pool is a per-engine free list of Flit objects. A pool is only ever used
// from one goroutine at a time (the sharded engine gives every tile its own
// and reconciles them with the engine's between cycles, see Settle), so a
// plain LIFO free list beats sync.Pool here: no locking and no per-P caches
// that drain under GC pressure. Nothing a run computes depends on which Flit
// object carries a flit.
//
// Ownership rule: a flit has exactly one owner at any cycle — an input
// latch, an output latch, a link stage, a buffer slot, an injection queue or
// the retransmit wheel. The owner that removes a flit from the network for
// good (the engine, at ejection) must Put it back. Producers overwrite every
// field when they acquire a flit (see traffic.PacketSpec.MaterializeFlit); the
// pool never zeroes.
type Pool struct {
	free        []*Flit
	outstanding int
	// carved counts the flits in slabs, the arrays every flit of the pool
	// comes from (grow, Reclaim).
	carved int
	slabs  [][]Flit
}

// MinSlab is the fewest flits a growing pool carves at once, and growDiv
// sets the rest: a slab is 1/growDiv of what the pool has carved so far. A
// pool with at most k flits outstanding at once therefore carves O(log k)
// slabs and at most (1 + 1/growDiv)·k + MinSlab flits.
const (
	MinSlab = 256
	growDiv = 4
)

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a flit for reuse. When the free list is empty the pool carves
// one more slab (grow) first, so every flit it hands out lives in one of its
// slabs. The caller must overwrite every field — stale state from the
// flit's previous life is preserved otherwise.
func (p *Pool) Get() *Flit {
	p.outstanding++
	if len(p.free) == 0 {
		p.grow()
	}
	n := len(p.free) - 1
	f := p.free[n]
	p.free = p.free[:n]
	return f
}

// Put returns a flit whose network life has ended. The caller must drop its
// reference: a flit that is Put twice, or used after Put, corrupts the free
// list.
func (p *Pool) Put(f *Flit) {
	p.outstanding--
	p.free = append(p.free, f)
}

// Prime grows the free list to at least n flits, carving the shortfall as
// one slab. The engine primes a small floor at construction — the flits its
// nodes materialize on their first injections — and lets the pool grow with
// the traffic from there.
func (p *Pool) Prime(n int) {
	if k := n - len(p.free); k > 0 {
		p.carve(k)
	}
}

// grow carves the next slab: 1/growDiv of what the pool has carved, and no
// fewer than MinSlab flits.
func (p *Pool) grow() { p.carve(max(MinSlab, p.carved/growDiv)) }

// carve adds a slab of k flits to the free list, making room in the free
// list for every flit the pool has carved so that Put and Reclaim do not
// reallocate it.
func (p *Pool) carve(k int) {
	p.carved += k
	if want := max(len(p.free)+k, p.carved); cap(p.free) < want {
		p.free = append(make([]*Flit, 0, want), p.free...)
	}
	slab := make([]Flit, k)
	for i := range slab {
		p.free = append(p.free, &slab[i])
	}
	p.slabs = append(p.slabs, slab)
}

// Outstanding returns Gets minus Puts — the number of live flits the pool
// has handed out. After a network drains completely this must equal zero;
// the leak regression test asserts exactly that.
func (p *Pool) Outstanding() int { return p.outstanding }

// Carved returns the number of flits in the pool's slabs (diagnostics).
func (p *Pool) Carved() int { return p.carved }

// Settle reconciles a tile-local pool with p, the engine's own, between
// cycles. local's outstanding balance — its Gets minus Puts since the last
// call, negative for a tile that ejects more than it injects — moves into p's,
// so p.Outstanding() is the network-wide count again; and local's free list is
// brought back to target flits once it has drifted below half or above twice
// that, so a sustained flow of traffic from one tile to another neither
// starves the sender nor hoards at the receiver. A refill that p cannot cover
// grows p slab by slab, as Get does. O(1) when neither happened.
func (p *Pool) Settle(local *Pool, target int) {
	p.outstanding += local.outstanding
	local.outstanding = 0
	switch n := len(local.free); {
	case n < target/2:
		need := target - n
		for len(p.free) < need {
			p.grow()
		}
		cut := len(p.free) - need
		local.free = append(local.free, p.free[cut:]...)
		p.free = p.free[:cut]
	case n > 2*target:
		p.free = append(p.free, local.free[target:]...)
		local.free = local.free[:target]
	}
}

// FreeLen returns the free-list length (diagnostics).
func (p *Pool) FreeLen() int { return len(p.free) }

// Reclaim makes every flit of every slab the pool carved free again — the
// ones handed out and never returned included — drops the flits a Settle
// handed over from another pool (that pool's own Reclaim frees them) and
// zeroes the outstanding count. The slabs are kept, so a reused pool reaches
// its high-water mark once. Engine.Reset uses it once nothing of the
// discarded run can be read any more: the flits that run left anywhere are
// the next run's free list — a slab stays alive while any of its flits is
// referenced, so abandoning them instead would keep them unused and carve
// replacements.
func (p *Pool) Reclaim() {
	p.free, p.outstanding = p.free[:0], 0
	for _, slab := range p.slabs {
		for i := range slab {
			p.free = append(p.free, &slab[i])
		}
	}
}

// SortByAge sorts fs oldest-first (see Older). Insertion sort: every call
// site sorts at most NumPorts flits, so this beats sort.Slice while staying
// allocation-free, and Older's total order makes the result identical to
// any comparison sort.
func SortByAge(fs []*Flit) {
	for i := 1; i < len(fs); i++ {
		f := fs[i]
		j := i - 1
		for j >= 0 && f.Older(fs[j]) {
			fs[j+1] = fs[j]
			j--
		}
		fs[j+1] = f
	}
}
