package analysis

import (
	"fmt"
	"slices"

	"repro/internal/trace"
)

// CheckSharing observes a postprocessed event stream and, for every
// file two or more nodes held open at once, compares Figure 7's
// sharing, computed with no scratch and with one pooled across the
// files, against referenceSharing. It returns how many files it
// checked, and an error naming the first mismatch.
func CheckSharing(header trace.Header, events []trace.Event) (int, error) {
	o := NewOnline(header)
	for i := range events {
		o.Observe(&events[i])
	}
	ids := make([]uint64, 0, len(o.files))
	for id := range o.files {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	pooled := &Scratch{}
	checked := 0
	for _, id := range ids {
		f := o.files[id]
		if f.maxOpenNodes < 2 {
			continue
		}
		wantByte, wantBlock, wantOK := referenceSharing(f, o.blockBytes)
		for _, s := range []*Scratch{nil, pooled} {
			byteGot, blockGot, ok := f.sharing(o.blockBytes, s)
			if byteGot != wantByte || blockGot != wantBlock || ok != wantOK {
				return checked, fmt.Errorf("file %d (pooled %v): sharing = %v, %v, %v; reference %v, %v, %v",
					id, s != nil, byteGot, blockGot, ok, wantByte, wantBlock, wantOK)
			}
		}
		checked++
	}
	return checked, nil
}
