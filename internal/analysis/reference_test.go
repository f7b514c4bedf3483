package analysis

import "sort"

// referenceSharing is Figure 7's sharing computed the direct way, kept
// as the oracle for fileAcc.sharing's interval sweeps: the byte share
// from one edge sweep with starts ordered before ends at equal
// positions, and the block share by marking every block each node
// touches in a per-node set and counting, per block, the nodes that
// marked it. It costs one map insert per block a request spans, so
// feed it only ranges that span few blocks.
func referenceSharing(f *fileAcc, blockBytes int64) (bytePct, blockPct float64, ok bool) {
	if len(f.streams) < 2 {
		return 0, 0, false
	}
	var edges []posEdge
	blocks := make(map[int64]int)
	for _, st := range f.streams {
		nodeBlocks := make(map[int64]struct{})
		for _, r := range st.mergedRangesInto(nil) {
			edges = append(edges, posEdge{r.Start, +1}, posEdge{r.End, -1})
			for b := r.Start / blockBytes; b <= (r.End-1)/blockBytes; b++ {
				nodeBlocks[b] = struct{}{}
			}
		}
		for b := range nodeBlocks {
			blocks[b]++
		}
	}
	if len(edges) == 0 {
		return 0, 0, false
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].pos != edges[j].pos {
			return edges[i].pos < edges[j].pos
		}
		return edges[i].delta > edges[j].delta // starts before ends at ties
	})
	var union, shared int64
	depth := 0
	prev := edges[0].pos
	for _, e := range edges {
		if e.pos > prev {
			if depth >= 1 {
				union += e.pos - prev
			}
			if depth >= 2 {
				shared += e.pos - prev
			}
		}
		prev = e.pos
		depth += e.delta
	}
	var blockUnion, blockShared int64
	for _, nodes := range blocks {
		blockUnion++
		if nodes >= 2 {
			blockShared++
		}
	}
	if union == 0 || blockUnion == 0 {
		return 0, 0, false
	}
	return 100 * float64(shared) / float64(union),
		100 * float64(blockShared) / float64(blockUnion), true
}
