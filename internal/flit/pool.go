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
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a flit for reuse, allocating only when the free list is
// empty. The caller must overwrite every field — stale state from the
// flit's previous life is preserved otherwise.
func (p *Pool) Get() *Flit {
	p.outstanding++
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	return new(Flit)
}

// Put returns a flit whose network life has ended. The caller must drop its
// reference: a flit that is Put twice, or used after Put, corrupts the free
// list.
func (p *Pool) Put(f *Flit) {
	p.outstanding--
	p.free = append(p.free, f)
}

// Prime grows the free list to at least n flits. The engine primes the pool
// from the mesh dimensions at construction so steady state is reached without
// long warmup-time growth: in-network occupancy is bounded by per-node latch,
// buffer and injection-slack capacity, so a capacity-proportional free list
// absorbs the in-flight population's peaks from the first cycle.
func (p *Pool) Prime(n int) {
	for len(p.free) < n {
		p.free = append(p.free, new(Flit))
	}
}

// Outstanding returns Gets minus Puts — the number of live flits the pool
// has handed out. After a network drains completely this must equal zero;
// the leak regression test asserts exactly that.
func (p *Pool) Outstanding() int { return p.outstanding }

// Settle reconciles a tile-local pool with p, the engine's own, between
// cycles. local's outstanding balance — its Gets minus Puts since the last
// call, negative for a tile that ejects more than it injects — moves into p's,
// so p.Outstanding() is the network-wide count again; and local's free list is
// brought back to target flits once it has drifted below half or above twice
// that, so a sustained flow of traffic from one tile to another neither
// starves the sender nor hoards at the receiver. O(1) when neither happened.
func (p *Pool) Settle(local *Pool, target int) {
	p.outstanding += local.outstanding
	local.outstanding = 0
	switch n := len(local.free); {
	case n < target/2:
		p.Prime(target - n)
		cut := len(p.free) - (target - n)
		local.free = append(local.free, p.free[cut:]...)
		p.free = p.free[:cut]
	case n > 2*target:
		p.free = append(p.free, local.free[target:]...)
		local.free = local.free[:target]
	}
}

// FreeLen returns the free-list length (diagnostics).
func (p *Pool) FreeLen() int { return len(p.free) }

// DropOutstanding abandons the pool's claim on every outstanding flit
// without recycling them. Engine.Reset uses it: flits still held by
// discarded routers become ordinary garbage, while the free list is kept
// for the next run.
func (p *Pool) DropOutstanding() { p.outstanding = 0 }

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
