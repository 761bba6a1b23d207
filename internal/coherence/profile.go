// Package coherence is the SPLASH-2 traffic substrate: a deterministic
// multiprocessor memory-system model that generates the request/reply
// coherence traffic the paper captured with Simics+GEMS (Tables I and II),
// and measures benchmark execution time as the cycle at which every
// processor completes its memory-operation budget.
//
// The model implements, per tile: an in-order processor issuing memory
// operations separated by compute gaps, private L1 and L2 caches abstracted
// by per-benchmark hit rates and the Table I/II access latencies, and an
// MSHR that blocks the processor on an outstanding L2 miss. Sixteen
// directory+memory controllers (Table II) run a MESI directory protocol:
// GetS/GetM requests, Data replies (one 64 B cache block = 5 flits of
// 128 bits including the header), Fwd to dirty owners, Inv/InvAck for write
// upgrades, Unblock completion messages, and Put/PutAck writebacks.
//
// The paper's actual traces came from UltraSPARC checkpoints; only the
// *network-visible* behaviour matters for Figs. 9-10 — message mix, sizes,
// request-reply dependences, per-benchmark intensity and sharing — and the
// substitute generates exactly that structure (see DESIGN.md §4).
//
// A cycle costs what happens in it (System): a ready calendar — a ring of
// tile bitsets, 2·ComputeGap + L2AccessLatency long — names the tiles that
// may issue, an event calendar — a ring of typed records, MemoryLatency long
// — the directory and memory accesses that end, a node bitset the outboxes
// to drain. Messages, misses and events are values in reused tables and
// directory entries come from slab chunks: steady state allocates nothing.
package coherence

// Latency and structural constants from Tables I and II.
const (
	// L1AccessLatency is the IL1/DL1 access latency (2 cycles).
	L1AccessLatency = 2
	// L2AccessLatency is the private L2 access latency (4 cycles).
	L2AccessLatency = 4
	// MemoryLatency is the main-memory latency (160 cycles).
	MemoryLatency = 160
	// DirectoryLatency is the directory access latency (80 cycles).
	DirectoryLatency = 80
	// NumDirectories is the number of directory+memory controllers (16).
	NumDirectories = 16
	// DataFlits is a 64 B cache block on 128-bit flits, plus the header.
	DataFlits = 5
	// CtrlFlits is a single-flit control message.
	CtrlFlits = 1
	// MSHREntries bounds outstanding misses per tile (Table I: 16); the
	// in-order model uses it only to bound prefetch-style writebacks.
	MSHREntries = 16
)

// Profile characterizes one benchmark's memory behaviour. Rates are
// calibrated from published SPLASH-2 characterizations (Woo et al., ISCA'95
// — the paper's reference [17]) to reproduce each benchmark's *relative*
// network intensity and sharing degree; the absolute instruction counts are
// scaled down so a run completes in simulator-friendly time.
type Profile struct {
	// Name is the benchmark name as in Fig. 9/10.
	Name string
	// OpsPerProc is the per-processor memory-operation budget.
	OpsPerProc int
	// L1Hit is the probability a memory op hits in L1.
	L1Hit float64
	// L2Hit is the probability an L1 miss hits in the private L2.
	L2Hit float64
	// Share is the probability an L2 miss touches a shared block (the rest
	// go to private blocks, which still travel to the home directory but
	// never conflict).
	Share float64
	// Write is the probability an access is a store (GetM instead of GetS).
	Write float64
	// ComputeGap is the mean number of cycles between memory operations.
	ComputeGap int
	// Writeback is the probability an L2 miss also evicts a dirty block
	// (generating Put/PutAck traffic).
	Writeback float64
	// SharedBlocks and PrivateBlocksPerTile size the address pools.
	SharedBlocks         int
	PrivateBlocksPerTile int
	// DetailedCaches switches the tile model from profile hit rates to
	// real set-associative L1/L2 caches (Table I/II geometries): hit rates
	// and writeback traffic then emerge from the working set. Address
	// pools are scaled by DetailedWorkingSetScale in this mode. L1Hit,
	// L2Hit and Writeback are ignored.
	DetailedCaches bool
}

// Detailed returns a copy of the profile with real caches enabled.
func (p Profile) Detailed() Profile {
	p.DetailedCaches = true
	return p
}

// Profiles returns the nine SPLASH-2 benchmark profiles in the paper's
// order (FFT 16K, LU 512×512, Radiosity largeroom, Ocean 258×258, Raytrace
// teapot, Radix 1M, Water 512, FMM 16K, Barnes 16K).
func Profiles() []Profile {
	return []Profile{
		// FFT: all-to-all transpose phases — high L2 miss rate, moderate
		// sharing, bursty communication.
		{Name: "FFT", OpsPerProc: 1500, L1Hit: 0.92, L2Hit: 0.55, Share: 0.55, Write: 0.30, ComputeGap: 4, Writeback: 0.35, SharedBlocks: 2048, PrivateBlocksPerTile: 256},
		// LU: blocked factorization — good locality, producer/consumer
		// sharing of pivot blocks.
		{Name: "LU", OpsPerProc: 1500, L1Hit: 0.95, L2Hit: 0.70, Share: 0.45, Write: 0.25, ComputeGap: 6, Writeback: 0.25, SharedBlocks: 1024, PrivateBlocksPerTile: 256},
		// Radiosity: irregular task-queue sharing, low miss rates.
		{Name: "Radiosity", OpsPerProc: 1500, L1Hit: 0.97, L2Hit: 0.75, Share: 0.60, Write: 0.20, ComputeGap: 8, Writeback: 0.15, SharedBlocks: 1024, PrivateBlocksPerTile: 256},
		// Ocean: nearest-neighbour grid sweeps over a huge working set —
		// the most network-intensive benchmark.
		{Name: "Ocean", OpsPerProc: 1500, L1Hit: 0.88, L2Hit: 0.45, Share: 0.50, Write: 0.35, ComputeGap: 3, Writeback: 0.40, SharedBlocks: 4096, PrivateBlocksPerTile: 512},
		// Raytrace: read-mostly shared scene data, irregular access.
		{Name: "Raytrace", OpsPerProc: 1500, L1Hit: 0.94, L2Hit: 0.60, Share: 0.75, Write: 0.10, ComputeGap: 5, Writeback: 0.10, SharedBlocks: 2048, PrivateBlocksPerTile: 256},
		// Radix: streaming permutation with heavy all-to-all writes.
		{Name: "Radix", OpsPerProc: 1500, L1Hit: 0.90, L2Hit: 0.40, Share: 0.60, Write: 0.45, ComputeGap: 3, Writeback: 0.45, SharedBlocks: 4096, PrivateBlocksPerTile: 512},
		// Water: small working set, mostly-private molecule data.
		{Name: "Water", OpsPerProc: 1500, L1Hit: 0.97, L2Hit: 0.80, Share: 0.40, Write: 0.25, ComputeGap: 8, Writeback: 0.10, SharedBlocks: 512, PrivateBlocksPerTile: 128},
		// FMM: tree-structured sharing, moderate miss rates.
		{Name: "FMM", OpsPerProc: 1500, L1Hit: 0.95, L2Hit: 0.65, Share: 0.55, Write: 0.20, ComputeGap: 6, Writeback: 0.20, SharedBlocks: 1024, PrivateBlocksPerTile: 256},
		// Barnes: octree walks with wide read sharing of body data.
		{Name: "Barnes", OpsPerProc: 1500, L1Hit: 0.94, L2Hit: 0.60, Share: 0.65, Write: 0.25, ComputeGap: 5, Writeback: 0.20, SharedBlocks: 2048, PrivateBlocksPerTile: 256},
	}
}

// ProfileByName returns the named profile.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
