package npb

import (
	"cenju4/internal/cpu"
	"cenju4/internal/shmem"
	"cenju4/internal/topology"
)

// privBufElems sizes the rotating private work buffer (4 MB of address
// space — 4x the secondary cache). See rotStream.
const privBufElems = 512 * 1024

// gridParams tunes the BT/SP ADI solver shape. Both applications sweep
// a 3-D grid in three directions per time step; the third (z) direction
// crosses the plane decomposition, which is what dsm(1) pays for and
// dsm(2) restructures away.
//
// Every variant performs the same compute: `sweeps` passes at `compute`
// instructions per element plus one z-pass of zFraction x partition
// elements at compute/2. The variants differ only in which memory the
// passes touch.
type gridParams struct {
	// compute is the per-element instruction count of a sweep.
	compute uint64
	// zFraction scales the cross-partition z-pass volume relative to
	// the partition size (SP moves more data per flop than BT, hence
	// its lower ceiling).
	zFraction float64
	// dsm2CopyFrac is the fraction of the partition dsm(2) still copies
	// remotely per iteration after the loop translations (boundary
	// planes rather than whole partitions).
	dsm2CopyFrac float64
	// sweeps is the number of partition-local passes per iteration.
	sweeps int
}

// buildGridSolver builds BT or SP.
func buildGridSolver(opts Options, alloc *shmem.Allocator, points int, gp gridParams) ([]cpu.Program, *shmem.Region) {
	p := opts.Nodes
	npp := points / p
	u := alloc.Shared("u", points, mapping(opts))
	work := alloc.Private("work", privBufElems)
	zCount := int(float64(npp) * gp.zFraction)
	passes := gp.sweeps + 2 // rotation stride per iteration

	progs := make([]cpu.Program, p)
	for n := 0; n < p; n++ {
		node := topology.NodeID(n)
		lo, hi := u.OwnerRange(node)
		nextStart := ((n + 1) % p) * npp
		progs[n] = &program{iters: opts.Iterations, build: func(iter int) []phase {
			pass := iter * passes
			var ph []phase
			switch opts.Variant {
			case Seq:
				for s := 0; s < gp.sweeps; s++ {
					ph = append(ph, rotStream(work, pass+s, npp, gp.compute, 2))
				}
				ph = append(ph, rotStream(work, pass+gp.sweeps, zCount, gp.compute/2, 2))

			case DSM1:
				// Outermost-loop parallelization: the sweeps run in place
				// on the shared array (every iteration's stores re-acquire
				// ownership of blocks the neighbor read), and the
				// untransformed z-solve reads AND writes the next node's
				// still-dirty planes.
				for s := 0; s < gp.sweeps; s++ {
					ph = append(ph, stream(u, lo, hi, gp.compute, 2))
					ph = append(ph, barrier())
				}
				z := wrapStream(u, nextStart, zCount, gp.compute/2)
				z.storeEvery = 2
				ph = append(ph, z, barrier())

			case DSM2:
				// Loop translations + private work arrays: all passes run
				// on private memory; only boundary planes are copied from
				// the neighbor's partition and the owner writes its own
				// partition back.
				for s := 0; s < gp.sweeps; s++ {
					ph = append(ph, rotStream(work, pass+s, npp, gp.compute, 2))
				}
				ph = append(ph, rotStream(work, pass+gp.sweeps, zCount, gp.compute/2, 2))
				if copyCount := int(float64(npp) * gp.dsm2CopyFrac); copyCount > 0 {
					ph = append(ph, wrapStream(u, nextStart, copyCount, 1))
					// Only the boundary planes live in shared memory now;
					// the owner writes just those back.
					wbHi := lo + copyCount
					if wbHi > hi {
						wbHi = hi
					}
					ph = append(ph, stream(u, lo, wbHi, 1, 1))
				}
				ph = append(ph, barrier())

			case MPI:
				// Same private computation, halo exchanges with the two
				// neighbor ranks instead of shared-memory traffic.
				for s := 0; s < gp.sweeps; s++ {
					ph = append(ph, rotStream(work, pass+s, npp, gp.compute, 2))
				}
				ph = append(ph, rotStream(work, pass+gp.sweeps, zCount, gp.compute/2, 2))
				if p > 1 {
					halo := uint64(npp * shmem.ElemSize / 8)
					left := topology.NodeID((n + p - 1) % p)
					right := topology.NodeID((n + 1) % p)
					ph = append(ph, &opPhase{ops: []cpu.Op{
						send(left, halo), send(right, halo),
						recv(left), recv(right),
					}})
				}
				ph = append(ph, allReduce(8))
			}
			return ph
		}}
	}
	return progs, u
}

// buildFT builds the 3-D FFT kernel: three compute-dense 1-D FFT passes
// and a global transpose each iteration.
func buildFT(opts Options, alloc *shmem.Allocator, points int) ([]cpu.Program, *shmem.Region) {
	const fftCompute = 40
	const fftPasses = 3
	p := opts.Nodes
	npp := points / p
	x := alloc.Shared("x", points, mapping(opts))
	y := alloc.Private("y", privBufElems)

	progs := make([]cpu.Program, p)
	for n := 0; n < p; n++ {
		node := topology.NodeID(n)
		lo, hi := x.OwnerRange(node)
		nextStart := ((n + 1) % p) * npp
		progs[n] = &program{iters: opts.Iterations, build: func(iter int) []phase {
			pass := iter * (fftPasses + 1)
			var ph []phase
			switch opts.Variant {
			case Seq:
				for s := 0; s < fftPasses; s++ {
					ph = append(ph, rotStream(y, pass+s, npp, fftCompute, 2))
				}
				ph = append(ph, rotStream(y, pass+fftPasses, npp, 2, 2))

			case DSM1:
				// FFT passes in place on the shared array; the transpose
				// reads and writes the neighbor's still-dirty partition.
				for s := 0; s < fftPasses; s++ {
					ph = append(ph, stream(x, lo, hi, fftCompute, 2))
					ph = append(ph, barrier())
				}
				tr := wrapStream(x, nextStart, npp, 2)
				tr.storeEvery = 2
				ph = append(ph, tr, barrier())

			case DSM2:
				// FFT passes on private memory; a blocked remote copy of
				// the transposed half, one owned write-back.
				for s := 0; s < fftPasses; s++ {
					ph = append(ph, rotStream(y, pass+s, npp, fftCompute, 2))
				}
				ph = append(ph, rotStream(y, pass+fftPasses, npp, 2, 2))
				ph = append(ph, wrapStream(x, nextStart, npp/4, 1))
				ph = append(ph, stream(x, lo, lo+npp/4, 1, 1))
				ph = append(ph, barrier())

			case MPI:
				for s := 0; s < fftPasses; s++ {
					ph = append(ph, rotStream(y, pass+s, npp, fftCompute, 2))
				}
				ph = append(ph, rotStream(y, pass+fftPasses, npp, 2, 2))
				if p > 1 {
					// All-to-all transpose: each rank exchanges 1/p of its
					// partition with every other rank.
					vol := uint64(npp / p * shmem.ElemSize)
					if vol == 0 {
						vol = shmem.ElemSize
					}
					var ops []cpu.Op
					for d := 1; d < p; d++ {
						ops = append(ops, send(topology.NodeID((n+d)%p), vol))
					}
					for d := 1; d < p; d++ {
						ops = append(ops, recv(topology.NodeID((n+p-d)%p)))
					}
					ph = append(ph, &opPhase{ops: ops})
				}
				ph = append(ph, barrier())
			}
			return ph
		}}
	}
	return progs, x
}

// buildCG builds the conjugate-gradient kernel. The defining pattern:
// every node streams the *entire* shared vector p during the sparse
// mat-vec while p is rewritten by its owners each iteration, so the
// per-node re-fetch cost is constant in machine size while the per-node
// compute shrinks — the cause of CG's saturation in Figure 12.
func buildCG(opts Options, alloc *shmem.Allocator, points, nnz int) ([]cpu.Program, *shmem.Region) {
	p := opts.Nodes
	nnzPP := nnz / p
	vec := alloc.Shared("p", points, mapping(opts))
	a := alloc.Private("a", nnzPP)
	pPriv := alloc.Private("pcopy", points)

	progs := make([]cpu.Program, p)
	for n := 0; n < p; n++ {
		node := topology.NodeID(n)
		lo, hi := vec.OwnerRange(node)
		progs[n] = &program{iters: opts.Iterations, build: func(int) []phase {
			var ph []phase
			switch opts.Variant {
			case Seq:
				ph = append(ph,
					pairedStream(pPriv, 0, nnzPP, a, 4),
					stream(pPriv, 0, points, 2, 1),
				)

			case DSM1, DSM2:
				// The paper found the dsm(2) optimizations do not change
				// CG's access structure (Table 3); the variants differ
				// only in rewriting effort.
				ph = append(ph,
					// Sparse mat-vec: A streams from private memory, p's
					// columns wrap the whole shared vector.
					pairedStream(vec, lo, nnzPP, a, 4),
					allReduce(8),
					allReduce(8),
					// Owners rewrite their partition of p, invalidating
					// every node's cached copy.
					stream(vec, lo, hi, 2, 1),
					barrier(),
				)

			case MPI:
				ph = append(ph,
					pairedStream(pPriv, lo, nnzPP, a, 4),
					allReduce(8),
					allReduce(8),
					stream(pPriv, lo, hi, 2, 1),
				)
				if p > 1 {
					// Exchange updated vector segments around the ring
					// (NPB CG exchanges with reduce partners; ring volume
					// is equivalent for our purposes).
					vol := uint64((hi - lo) * shmem.ElemSize)
					left := topology.NodeID((n + p - 1) % p)
					right := topology.NodeID((n + 1) % p)
					ph = append(ph, &opPhase{ops: []cpu.Op{
						send(left, vol), send(right, vol),
						recv(left), recv(right),
					}})
				}
			}
			return ph
		}}
	}
	return progs, vec
}
