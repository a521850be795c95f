package disk

import (
	"nemesis/internal/obs"
	"nemesis/internal/sim"
)

// Fork returns an independent copy of the drive attached to s (the forked
// simulator) and r (the forked registry, nil if the parent had no telemetry).
//
// Mechanical state — head cylinder, read-ahead segments, stats — is copied
// outright; it is tiny. The block store is not: a warmed world has tens of
// megabytes of swap-file data on disk, almost all of which the fork will
// never overwrite. Chunks are therefore shared copy-on-write: the fork gets
// a copy of the chunk index, every written chunk is marked shared on both
// sides, and whichever side writes a shared chunk first copies its bytes
// privately. Shared bytes are immutable from the instant of the fork, so
// parent and children can run on different goroutines without touching each
// other's data. A chunk written with zeros holds no bytes, but it is shared
// (and counted) all the same.
func (d *Disk) Fork(s *sim.Simulator, r *obs.Registry) *Disk {
	nd := &Disk{
		Geom:  d.Geom,
		sim:   s,
		dir:   make([]*chunkGroup, len(d.dir)),
		segs:  append([]segment(nil), d.segs...),
		tick:  d.tick,
		head:  d.head,
		stats: d.stats,
	}
	for gi, g := range d.dir {
		if g == nil {
			continue
		}
		for i := range g {
			if g[i].written {
				g[i].shared = true
			}
		}
		ng := *g
		nd.dir[gi] = &ng
	}
	nd.SetObs(r)
	return nd
}

// SharedChunks reports how many block-store chunks are currently marked
// copy-on-write, and how many chunks have been written at all (zeros
// included). Exposed for fork metrics and tests.
func (d *Disk) SharedChunks() (shared, populated int) {
	for _, g := range d.dir {
		if g == nil {
			continue
		}
		for i := range g {
			if !g[i].written {
				continue
			}
			populated++
			if g[i].shared {
				shared++
			}
		}
	}
	return shared, populated
}

// StoredBytes reports how many bytes of block data the drive holds: chunks
// that read as zero hold none, however often they were written.
func (d *Disk) StoredBytes() int64 {
	var n int64
	for _, g := range d.dir {
		if g == nil {
			continue
		}
		for i := range g {
			n += int64(len(g[i].b))
		}
	}
	return n
}

// ChunkBytes is the size of one block-store chunk in bytes, exposed so fork
// metrics can report how much data CoW sharing avoided copying.
const ChunkBytes = chunkBlocks * BlockSize
