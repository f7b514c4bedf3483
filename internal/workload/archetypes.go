// Package workload generates the synthetic production workload that
// stands in for NASA Ames's proprietary 1993 CFD job mix. Application
// archetypes reproduce the access patterns the paper observed --
// per-node output files written as header+records, interleaved strided
// reads of shared inputs, broadcast reads of small mesh files,
// block-aligned checkpoint writes to shared files, rare read-write
// scratch and temporary files, and the one periodic status job that
// accounted for hundreds of single-node runs -- with mixture weights
// calibrated so that every figure and table in the paper comes out
// with the right shape (TestCalibrationShapes pins the targets).
package workload

import (
	"fmt"

	"repro/internal/cfs"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// recordSize draws a typical CFD record size: mostly small (the
// natural result of distributing matrix rows over many processors),
// with a minority of users who sized requests to the 4 KB block.
func recordSize(rng *stats.RNG) int64 {
	switch rng.Pick([]float64{35, 30, 20, 7, 8}) {
	case 0: // tiny records (a few doubles per column strip)
		return 40 + 8*rng.Int64n(60)
	case 1: // few-hundred-byte records
		return 200 + 8*rng.Int64n(200)
	case 2: // ~1-3 KB rows
		return 1024 + 8*rng.Int64n(256)
	case 3: // exactly block-sized: the optimized minority
		return 4096
	default: // medium, above the small threshold
		return 4096 + 8*rng.Int64n(1024)
	}
}

// sleepShort models a burst of computation between I/O calls.
func sleepShort(ctx *machine.NodeCtx, rng *stats.RNG) {
	ctx.P.Sleep(sim.Time(rng.Int64n(int64(20 * sim.Millisecond))))
}

// openRead opens an existing file read-only, failing the job's node
// quietly if the file vanished (deleted between jobs).
func openRead(ctx *machine.NodeCtx, name string, mode cfs.IOMode) *cfs.Handle {
	h, err := ctx.CFS.Open(ctx.P, name, cfs.ORdOnly, mode)
	if err != nil {
		return nil
	}
	return h
}

// readAll reads a whole file start-to-finish in rec-sized consecutive
// requests: the broadcast-read pattern (100% sequential, 100%
// consecutive, fully byte-shared when every node does it).
func readAll(ctx *machine.NodeCtx, h *cfs.Handle, rec int64) {
	size := h.Size()
	for off := int64(0); off < size; {
		n, err := h.Read(ctx.P, rec)
		if err != nil || n == 0 {
			break
		}
		off += n
	}
}

// readInterleaved reads records rank, rank+P, rank+2P, ... of a shared
// file: sequential but non-consecutive per node, one non-zero interval
// size, disjoint bytes but shared blocks when rec < 4 KB.
func readInterleaved(ctx *machine.NodeCtx, h *cfs.Handle, rec int64) {
	size := h.Size()
	stride := rec * int64(ctx.JobNodes)
	for base := int64(ctx.Rank) * rec; base < size; base += stride {
		if _, err := h.ReadAt(ctx.P, base, rec); err != nil {
			break
		}
	}
}

// readPartitioned gives each node one contiguous chunk of the file,
// read in a single request: the dominant parallel input pattern. Per
// node there are no intervals at all (Table 2's 0-interval bucket);
// all nodes but rank 0 start past byte zero, so the file is sequential
// but not consecutive. With overlap false the nodes' byte ranges are
// disjoint (Figure 7's 0%-shared population); with overlap true each
// node also reads both neighbouring chunks -- the ghost-cell pattern
// of a domain-decomposed CFD solver -- so every byte is read by two or
// three nodes and the file is fully byte-shared, still in one request
// per node.
func readPartitioned(ctx *machine.NodeCtx, h *cfs.Handle, overlap bool) {
	size := h.Size()
	chunk := size / int64(ctx.JobNodes)
	if chunk <= 0 {
		if ctx.Rank == 0 && size > 0 {
			h.ReadAt(ctx.P, 0, size)
		}
		return
	}
	lo := int64(ctx.Rank)
	hi := lo + 1
	if overlap {
		lo--
		hi++
	}
	if lo < 0 {
		lo = 0
	}
	off := lo * chunk
	end := hi * chunk
	if hi >= int64(ctx.JobNodes) {
		end = size // the top reader takes the remainder
	}
	h.ReadAt(ctx.P, off, end-off)
}

// readInterleavedPaired reads two consecutive records per stride step:
// offsets 2*rank, 2*rank+1, then 2*(rank+P), ... The per-node stream
// alternates a zero gap with a stride gap, producing the two distinct
// interval sizes of Table 2's small 2-interval population.
func readInterleavedPaired(ctx *machine.NodeCtx, h *cfs.Handle, rec int64) {
	size := h.Size()
	stride := 2 * rec * int64(ctx.JobNodes)
	for base := 2 * int64(ctx.Rank) * rec; base < size; base += stride {
		if _, err := h.ReadAt(ctx.P, base, rec); err != nil {
			break
		}
		if base+rec < size {
			if _, err := h.ReadAt(ctx.P, base+rec, rec); err != nil {
				break
			}
		}
	}
}

// writeRecords writes a header then count records consecutively: the
// per-node output pattern (write-only, 100% consecutive, two request
// sizes, one interval size of zero).
func writeRecords(ctx *machine.NodeCtx, h *cfs.Handle, header, rec int64, count int) {
	if header > 0 {
		h.Write(ctx.P, header)
	}
	for i := 0; i < count; i++ {
		h.Write(ctx.P, rec)
	}
}

// CFDSim is the dominant traced archetype: a time-stepping parallel
// CFD solver. Per run it
//  1. broadcast-reads a small shared mesh file (every node reads every
//     byte: Figure 7's fully byte-shared read-only population),
//  2. interleave-reads a few shared snapshot files drawn from a pool
//     that successive jobs revisit (re-read by later jobs, their bytes
//     end up shared; read by one job only, they are Figure 7's
//     0%-shared population),
//  3. column-reads one or two private matrix files per node (small
//     strided requests: the bulk of the read-only file count and of
//     all read requests -- sequential, never consecutive, one
//     non-zero interval size, never concurrently shared),
//  4. re-reads one or two large flow-field files in big interleaved
//     chunks before every compute phase (few requests, most of the
//     read bytes, and the phase-to-phase reuse an I/O-node cache can
//     capture), and
//  5. writes one private output file per node per phase -- a stream of
//     small records, a single bulk dump, or small annotations plus
//     bulk dumps.
//
// Optional per-node probe opens contribute the opened-but-untouched
// population, and a rare read-back of an output header makes that file
// read-write.
func CFDSim(rng *stats.RNG, job int, nodes int, meshFile string, sharedSnaps []string, restartPrefix string, bigFields []string) machine.JobSpec {
	phases := 1 + rng.Intn(4)
	// Shared-file records are a few hundred bytes to ~2 KB: small
	// requests, but with per-node strides that leave a block behind
	// every time once a dozen or more nodes interleave.
	meshRec := int64(512 + 8*rng.Int64n(192))
	snapRec := int64(512 + 8*rng.Int64n(192))
	bigChunk := int64(262144 + 65536*rng.Int64n(12)) // 256 KB - 1 MB
	// Per-snapshot access style: broadcast (every node reads every
	// byte), disjoint partitioned (one request per node: Figure 7's
	// 0%-shared population), overlapped partitioned (ghost cells: one
	// request per node, fully byte-shared), or interleaved small
	// records, singly or in pairs (the small 1- and 2-nonzero-interval
	// populations of Table 2).
	snapStyles := make([]int, len(sharedSnaps))
	for i := range snapStyles {
		snapStyles[i] = rng.Pick([]float64{10, 15, 57, 12, 6})
	}
	meshInterleaved := rng.Bool(0.7) || nodes >= 16 // records round-robin across nodes
	// Restart state is read in medium chunks: the stream is
	// consecutive but too coarse for a one-block buffer to matter.
	restartRec := int64(4096 + 8*rng.Int64n(512))
	// Most restart files carry a header the solver skips, so the
	// stream is sequential but one request short of 100% consecutive.
	restartSkip := int64(0)
	if rng.Bool(0.55) {
		restartSkip = 512 + 8*rng.Int64n(448)
	}
	outHeader := int64(64 + 8*rng.Intn(56))
	// Output style: a stream of small records, a single bulk dump, or
	// small annotations followed by bulk dumps.
	outStyle := rng.Pick([]float64{30, 40, 30})
	outRec := recordSize(rng)
	outRecords := 10 + rng.Intn(150)
	annotations := 10 + rng.Intn(30)
	dumpBytes := int64(65536 + 32768*rng.Int64n(10))
	if rng.Bool(0.18) {
		dumpBytes *= 12 // the rare huge-output tail
	}
	dumps := 1 + rng.Intn(2)
	probeNodes := int(0.5 * rng.Float64() * float64(nodes)) // nodes that probe an untouched file
	skipBroadcast := rng.Bool(0.3)                          // pure-strided runs
	verify := rng.Bool(0.12)                                // read back the last output header
	headerLast := rng.Bool(0.40)                            // seek back and rewrite the header at the end
	computePerPhase := sim.Time(rng.Int64n(int64(12 * sim.Minute)))

	return machine.JobSpec{
		Nodes:  nodes,
		Traced: true,
		Body: func(ctx *machine.NodeCtx) {
			// (0) optional probe of a per-node file that is never
			// accessed: opened, found stale, closed.
			if ctx.Rank < probeNodes {
				name := fmt.Sprintf("/job%d/probe.%d", job, ctx.Rank)
				if h, err := ctx.CFS.Open(ctx.P, name, cfs.ORdWr|cfs.OCreate, cfs.Mode0); err == nil {
					h.Close(ctx.P)
				}
			}
			// (2) read the shared snapshots.
			for i, snap := range sharedSnaps {
				if h := openRead(ctx, snap, cfs.Mode0); h != nil {
					switch snapStyles[i] {
					case 0:
						readAll(ctx, h, snapRec)
					case 1:
						readPartitioned(ctx, h, false)
					case 2:
						readPartitioned(ctx, h, true)
					case 3:
						readInterleaved(ctx, h, snapRec)
					default:
						readInterleavedPaired(ctx, h, snapRec)
					}
					h.Close(ctx.P)
				}
			}
			// (3) private per-node restart file: skip the header, then
			// stream small records to the end.
			if restartPrefix != "" {
				name := fmt.Sprintf("%s.%d", restartPrefix, ctx.Rank)
				if h := openRead(ctx, name, cfs.Mode0); h != nil {
					if restartSkip > 0 {
						h.Seek(ctx.P, restartSkip)
					}
					readAll(ctx, h, restartRec)
					h.Close(ctx.P)
				}
			}
			// (1,4,5) compute phases: re-read the mesh and the flow
			// fields (boundary data changes every timestep), compute,
			// dump a private output file.
			for phase := 0; phase < phases; phase++ {
				if !skipBroadcast {
					if h := openRead(ctx, meshFile, cfs.Mode0); h != nil {
						if meshInterleaved {
							readInterleaved(ctx, h, meshRec)
						} else {
							readAll(ctx, h, meshRec)
						}
						h.Close(ctx.P)
					}
				}
				for _, bf := range bigFields {
					if h := openRead(ctx, bf, cfs.Mode0); h != nil {
						readInterleaved(ctx, h, bigChunk)
						h.Close(ctx.P)
					}
				}
				ctx.P.Sleep(computePerPhase)
				name := fmt.Sprintf("/job%d/out.%d.%d", job, phase, ctx.Rank)
				flags := cfs.OWrOnly | cfs.OCreate
				last := phase == phases-1
				if verify && last {
					flags = cfs.ORdWr | cfs.OCreate
				}
				h, err := ctx.CFS.Open(ctx.P, name, flags, cfs.Mode0)
				if err != nil {
					continue
				}
				switch outStyle {
				case 0: // stream of small records behind a header
					writeRecords(ctx, h, outHeader, outRec, outRecords)
				case 1: // single bulk dump: one request, zero intervals
					h.Write(ctx.P, dumpBytes)
				default: // annotations then bulk dumps: two request
					// sizes, most bytes in the large requests
					for i := 0; i < annotations; i++ {
						h.Write(ctx.P, outHeader)
					}
					for i := 0; i < dumps; i++ {
						h.Write(ctx.P, dumpBytes)
					}
					if headerLast {
						// Rewrite the header now that totals are
						// known: the write-only file is no longer
						// 100% sequential or consecutive.
						h.Seek(ctx.P, 0)
						h.Write(ctx.P, outHeader)
					}
				}
				if verify && last {
					h.ReadAt(ctx.P, 0, outHeader)
				}
				h.Close(ctx.P)
				sleepShort(ctx, rng)
			}
		},
	}
}

// ParamStudy runs one small solver instance per node: each node reads
// its own input file in a handful of large requests and writes its own
// result in a single large request (the 0-interval, 1-size population).
func ParamStudy(rng *stats.RNG, job int, nodes int, inputPrefix string) machine.JobSpec {
	chunk := int64(65536 + 8192*rng.Int64n(16))
	outBytes := int64(262144 + 65536*rng.Int64n(24)) // 0.25-1.8 MB one-shot result
	compute := sim.Time(rng.Int64n(int64(25 * sim.Minute)))
	return machine.JobSpec{
		Nodes:  nodes,
		Traced: true,
		Body: func(ctx *machine.NodeCtx) {
			in := fmt.Sprintf("%s.%d", inputPrefix, ctx.Rank)
			if h := openRead(ctx, in, cfs.Mode0); h != nil {
				readAll(ctx, h, chunk)
				h.Close(ctx.P)
			}
			ctx.P.Sleep(compute)
			out := fmt.Sprintf("/job%d/result.%d", job, ctx.Rank)
			if h, err := ctx.CFS.Open(ctx.P, out, cfs.OWrOnly|cfs.OCreate, cfs.Mode0); err == nil {
				h.Write(ctx.P, outBytes)
				h.Close(ctx.P)
			}
		},
	}
}

// Checkpoint writes a shared, block-aligned checkpoint file: node i
// writes chunks i, i+P, i+2P... so the write-only file is concurrently
// open on every node with zero byte- or block-sharing.
func Checkpoint(rng *stats.RNG, job int, nodes int) machine.JobSpec {
	chunkBlocks := int64(16 + 16*rng.Int64n(4)) // 64-256 KB, block-aligned
	chunk := chunkBlocks * 4096
	rounds := 2 + rng.Intn(6)
	phases := 1 + rng.Intn(3)
	compute := sim.Time(rng.Int64n(int64(10 * sim.Minute)))
	return machine.JobSpec{
		Nodes:  nodes,
		Traced: true,
		Body: func(ctx *machine.NodeCtx) {
			for phase := 0; phase < phases; phase++ {
				ctx.P.Sleep(compute)
				name := fmt.Sprintf("/job%d/chkpt.%d", job, phase)
				h, err := ctx.CFS.Open(ctx.P, name, cfs.OWrOnly|cfs.OCreate, cfs.Mode0)
				if err != nil {
					continue
				}
				stride := chunk * int64(ctx.JobNodes)
				for r := 0; r < rounds; r++ {
					off := int64(r)*stride + int64(ctx.Rank)*chunk
					h.WriteAt(ctx.P, off, chunk)
				}
				h.Close(ctx.P)
			}
		},
	}
}

// RowPaddedReader reads a matrix stored with padded rows: within each
// row it reads consecutively, then skips the padding, producing two
// distinct interval sizes (the paper's small 2-interval population).
func RowPaddedReader(rng *stats.RNG, job int, nodes int, fieldFile string) machine.JobSpec {
	rowChunk := recordSize(rng)
	chunksPerRow := 3 + rng.Intn(5)
	pad := int64(128 + 8*rng.Int64n(64))
	compute := sim.Time(rng.Int64n(int64(8 * sim.Minute)))
	return machine.JobSpec{
		Nodes:  nodes,
		Traced: true,
		Body: func(ctx *machine.NodeCtx) {
			ctx.P.Sleep(compute)
			h := openRead(ctx, fieldFile, cfs.Mode0)
			if h == nil {
				return
			}
			size := h.Size()
			off := int64(0)
			for off < size {
				for c := 0; c < chunksPerRow && off < size; c++ {
					h.ReadAt(ctx.P, off, rowChunk)
					off += rowChunk
				}
				off += pad
			}
			h.Close(ctx.P)
			// Write a small per-node summary.
			out := fmt.Sprintf("/job%d/rows.%d", job, ctx.Rank)
			if w, err := ctx.CFS.Open(ctx.P, out, cfs.OWrOnly|cfs.OCreate, cfs.Mode0); err == nil {
				w.Write(ctx.P, 2048)
				w.Close(ctx.P)
			}
		},
	}
}

// RestartRun is a short two-node continuation run: each node reads its
// private restart file and writes one private output -- exactly four
// files per job, Table 1's prominent 4-file clump.
func RestartRun(rng *stats.RNG, job int, restartPrefix string) machine.JobSpec {
	rec := recordSize(rng)
	outRec := recordSize(rng)
	outRecords := 10 + rng.Intn(120)
	compute := sim.Time(rng.Int64n(int64(10 * sim.Minute)))
	return machine.JobSpec{
		Nodes:  2,
		Traced: true,
		Body: func(ctx *machine.NodeCtx) {
			restart := fmt.Sprintf("%s.%d", restartPrefix, ctx.Rank)
			if h := openRead(ctx, restart, cfs.Mode0); h != nil {
				readAll(ctx, h, rec)
				h.Close(ctx.P)
			}
			ctx.P.Sleep(compute)
			out := fmt.Sprintf("/job%d/cont.%d", job, ctx.Rank)
			if w, err := ctx.CFS.Open(ctx.P, out, cfs.OWrOnly|cfs.OCreate, cfs.Mode0); err == nil {
				writeRecords(ctx, w, 0, outRec, outRecords)
				w.Close(ctx.P)
			}
		},
	}
}

// Scratch is the rare out-of-core style job: a read-write working file
// accessed non-sequentially plus a temporary file deleted before exit
// (the paper's 0.61%-of-opens temporary population, "nearly all from
// one application").
func Scratch(rng *stats.RNG, job int, nodes int) machine.JobSpec {
	passes := 40 + rng.Intn(100)
	rec := recordSize(rng)
	span := int64(64 + rng.Int64n(192)) // working set in records
	compute := sim.Time(rng.Int64n(int64(10 * sim.Minute)))
	return machine.JobSpec{
		Nodes:  nodes,
		Traced: true,
		Body: func(ctx *machine.NodeCtx) {
			ctx.P.Sleep(compute)
			work := fmt.Sprintf("/job%d/work.%d", job, ctx.Rank)
			h, err := ctx.CFS.Open(ctx.P, work, cfs.ORdWr|cfs.OCreate, cfs.Mode0)
			if err != nil {
				return
			}
			// Materialize the working file.
			h.Write(ctx.P, rec*span)
			local := stats.NewRNG(uint64(job)<<16 | uint64(ctx.Rank))
			for i := 0; i < passes; i++ {
				off := local.Int64n(span) * rec
				if local.Bool(0.5) {
					h.ReadAt(ctx.P, off, rec)
				} else {
					h.WriteAt(ctx.P, off, rec)
				}
			}
			h.Close(ctx.P)
			// Re-open once more to append a trailer, then discard the
			// whole file: every open of this file is an open of a
			// temporary file (Section 4.2's 0.61%, "nearly all from
			// one application").
			if h2, err := ctx.CFS.Open(ctx.P, work, cfs.OWrOnly, cfs.Mode0); err == nil {
				h2.Seek(ctx.P, rec*span)
				h2.Write(ctx.P, 256)
				h2.Close(ctx.P)
			}
			ctx.CFS.Delete(ctx.P, work) // temporary: deleted by its creator
			// A second scratch pass through a sort file, also deleted.
			srt := fmt.Sprintf("/job%d/sort.%d", job, ctx.Rank)
			if h3, err := ctx.CFS.Open(ctx.P, srt, cfs.ORdWr|cfs.OCreate, cfs.Mode0); err == nil {
				h3.Write(ctx.P, rec*span/2)
				h3.Seek(ctx.P, 0)
				h3.Read(ctx.P, rec)
				h3.Close(ctx.P)
			}
			ctx.CFS.Delete(ctx.P, srt)
		},
	}
}

// BulkDump is the single application behind Figure 4's 1 MB
// data-transfer spike: every node dumps a few 1 MB requests.
func BulkDump(rng *stats.RNG, job int, nodes int) machine.JobSpec {
	dumps := 2 + rng.Intn(4)
	return machine.JobSpec{
		Nodes:  nodes,
		Traced: true,
		Body: func(ctx *machine.NodeCtx) {
			name := fmt.Sprintf("/job%d/dump.%d", job, ctx.Rank)
			h, err := ctx.CFS.Open(ctx.P, name, cfs.OWrOnly|cfs.OCreate, cfs.Mode0)
			if err != nil {
				return
			}
			for i := 0; i < dumps; i++ {
				h.Write(ctx.P, 1<<20)
				sleepShort(ctx, rng)
			}
			h.Close(ctx.P)
		},
	}
}

// LegacyShared is the <1% of opens that used CFS's shared-pointer
// modes: a self-scheduled reader using mode 1 or a lock-step reader
// using mode 3.
func LegacyShared(rng *stats.RNG, job int, nodes int, fieldFile string) machine.JobSpec {
	mode := cfs.Mode1
	if rng.Bool(0.4) {
		mode = cfs.Mode3
	}
	rec := int64(1024)
	perNode := 30 + rng.Intn(60)
	return machine.JobSpec{
		Nodes:  nodes,
		Traced: true,
		Body: func(ctx *machine.NodeCtx) {
			h, err := ctx.CFS.Open(ctx.P, fieldFile, cfs.ORdOnly, mode)
			if err != nil {
				return
			}
			for i := 0; i < perNode; i++ {
				if _, err := h.Read(ctx.P, rec); err != nil {
					break
				}
			}
			h.Close(ctx.P)
		},
	}
}

// SingleReader is a traced single-node postprocessing job: read one
// output sequentially, write a small report.
func SingleReader(rng *stats.RNG, job int, inputFile string) machine.JobSpec {
	rec := recordSize(rng)
	writeReport := rng.Bool(0.3) // most runs just read: a 1-file job
	compute := sim.Time(rng.Int64n(int64(5 * sim.Minute)))
	return machine.JobSpec{
		Nodes:  1,
		Traced: true,
		Body: func(ctx *machine.NodeCtx) {
			ctx.P.Sleep(compute)
			if h := openRead(ctx, inputFile, cfs.Mode0); h != nil {
				readAll(ctx, h, rec)
				h.Close(ctx.P)
			}
			if !writeReport {
				return
			}
			out := fmt.Sprintf("/job%d/report", job)
			if w, err := ctx.CFS.Open(ctx.P, out, cfs.OWrOnly|cfs.OCreate, cfs.Mode0); err == nil {
				w.Write(ctx.P, 1500)
				w.Close(ctx.P)
			}
		},
	}
}

// StatusCheck is the periodic machine-status job: single node, no CFS
// I/O, untraced; it ran over 800 times during the study.
func StatusCheck() machine.JobSpec {
	return machine.JobSpec{
		Nodes:  1,
		Traced: false,
		Body: func(ctx *machine.NodeCtx) {
			ctx.P.Sleep(5 * sim.Second)
		},
	}
}

// SystemUtil is an untraced single-node system program (ls, cp, ftp):
// it may touch CFS, but its library was never relinked, so it leaves
// no CFS trace records -- only job start/end records.
func SystemUtil(rng *stats.RNG, job int) machine.JobSpec {
	doesIO := rng.Bool(0.4)
	return machine.JobSpec{
		Nodes:  1,
		Traced: false,
		Body: func(ctx *machine.NodeCtx) {
			ctx.P.Sleep(sim.Time(rng.Int64n(int64(2 * sim.Minute))))
			if doesIO {
				name := fmt.Sprintf("/job%d/sys", job)
				if h, err := ctx.CFS.Open(ctx.P, name, cfs.OWrOnly|cfs.OCreate, cfs.Mode0); err == nil {
					h.Write(ctx.P, 4096)
					h.Close(ctx.P)
				}
			}
		},
	}
}

// UntracedParallel is a multi-node production job whose binary was not
// relinked with the instrumented library: real CFS load, no records.
func UntracedParallel(rng *stats.RNG, job int, nodes int, snapshots []string, restartPrefix string) machine.JobSpec {
	spec := CFDSim(rng, job, nodes, "/shared/mesh-u", snapshots, restartPrefix, []string{"/shared/field-u"})
	spec.Traced = false
	return spec
}
