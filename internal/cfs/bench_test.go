package cfs

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

type benchTransport struct{}

func (benchTransport) ToIONode(_, _, _ int) sim.Time   { return 100 * sim.Microsecond }
func (benchTransport) FromIONode(_, _, _ int) sim.Time { return 100 * sim.Microsecond }

// benchFS returns a file system preloaded with one large file.
func benchFS(b *testing.B, size int64) *FileSystem {
	b.Helper()
	k := sim.New()
	fs := New(k, DefaultConfig(), benchTransport{}, nil)
	if _, err := fs.Preload("/data", size); err != nil {
		b.Fatal(err)
	}
	return fs
}

// BenchmarkTransferSequential measures Handle.transfer on the pattern
// the paper found dominant: sequential whole-file reads in small
// requests. Each request touches one I/O node.
func BenchmarkTransferSequential(b *testing.B) {
	const fileSize = 1 << 24 // 16 MB
	fs := benchFS(b, fileSize)
	k := fs.k
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	k.Spawn("reader", func(p *sim.Proc) {
		c := NewClient(fs, 1, 0, nil)
		h, err := c.Open(p, "/data", ORdOnly, Mode0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < b.N; i++ {
			off := (int64(i) * 4096) % fileSize
			if _, err := h.ReadAt(p, off, 4096); err != nil {
				panic(err)
			}
			done++
		}
		h.Close(p)
	})
	k.Run()
	if done != b.N {
		b.Fatalf("completed %d of %d reads", done, b.N)
	}
}

// BenchmarkTransferStrided measures Handle.transfer on large requests
// that span every I/O node (one batch per node per call), the worst
// case for the per-call batching structures.
func BenchmarkTransferStrided(b *testing.B) {
	const fileSize = 1 << 24
	const span = 40 * 4096 // 10 I/O nodes x 4 blocks each
	fs := benchFS(b, fileSize)
	k := fs.k
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	k.Spawn("reader", func(p *sim.Proc) {
		c := NewClient(fs, 1, 0, nil)
		h, err := c.Open(p, "/data", ORdOnly, Mode0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < b.N; i++ {
			off := (int64(i) * span) % (fileSize - span)
			if _, err := h.ReadAt(p, off, span); err != nil {
				panic(err)
			}
			done++
		}
		h.Close(p)
	})
	k.Run()
	if done != b.N {
		b.Fatalf("completed %d of %d reads", done, b.N)
	}
}

// BenchmarkTransferWrite measures the allocating write path, which also
// exercises block allocation on first touch.
func BenchmarkTransferWrite(b *testing.B) {
	k := sim.New()
	fs := New(k, DefaultConfig(), benchTransport{}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	k.Spawn("writer", func(p *sim.Proc) {
		c := NewClient(fs, 1, 0, nil)
		h, err := c.Open(p, "/out", OWrOnly|OCreate, Mode0)
		if err != nil {
			panic(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := h.Write(p, 1024); err != nil {
				panic(err)
			}
			done++
		}
		h.Close(p)
	})
	k.Run()
	if done != b.N {
		b.Fatalf("completed %d of %d writes", done, b.N)
	}
}

// BenchmarkTransferJobs follows machine.startJob: each op is one job
// whose 16 node processes get fresh clients, read a shared input in a
// 1-block and a 40-block call, write a file of their own in a 1-block
// and a 40-block call, delete it, and Release. There is no arena, as
// in a cold study. The single-client rows above never create a second
// client, so they cannot show a cost paid per client.
func BenchmarkTransferJobs(b *testing.B) {
	const fileSize = 1 << 24
	const nodes = 16
	const span = 40 * 4096
	fs := benchFS(b, fileSize)
	k := fs.k
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("/out%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := uint32(i + 1)
		for node := 0; node < nodes; node++ {
			k.Spawn(names[node], func(p *sim.Proc) {
				c := NewClient(fs, job, node, nil)
				in, err := c.Open(p, "/data", ORdOnly, Mode0)
				if err != nil {
					panic(err)
				}
				out, err := c.Open(p, names[node], OWrOnly|OCreate, Mode0)
				if err != nil {
					panic(err)
				}
				off := int64(i*nodes+node) * span % (fileSize - span)
				in.ReadAt(p, off, 4096)
				in.ReadAt(p, off, span)
				out.Write(p, 4096)
				out.Write(p, span)
				in.Close(p)
				out.Close(p)
				if err := c.Delete(p, names[node]); err != nil {
					panic(err)
				}
				c.Release()
			})
		}
		k.Run()
	}
}
