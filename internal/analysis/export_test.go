package analysis

import (
	"fmt"

	"repro/internal/trace"
)

// CheckSharing observes a postprocessed event stream with the analyzer
// and with refOnline and, for every file two or more nodes held open
// at once, compares Figure 7's sharing, computed with fresh edge
// buffers and with the buffers the earlier files left, against
// referenceSharing over the reference's accumulator for the file. It
// returns how many files it checked, and an error naming the first
// mismatch.
func CheckSharing(header trace.Header, events []trace.Event) (int, error) {
	o, ref := NewOnline(header), newRefOnline(header)
	for i := range events {
		o.Observe(&events[i])
		ref.Observe(&events[i])
	}
	if len(o.st.files) != len(ref.files) {
		return 0, fmt.Errorf("%d files, reference %d", len(o.st.files), len(ref.files))
	}
	checked := 0
	for i := range o.st.files {
		f := &o.st.files[i]
		rf := ref.files[f.id]
		if rf == nil || f.maxOpenNodes != rf.maxOpenNodes {
			return checked, fmt.Errorf("file %d: at most %d nodes held it open; reference %+v", f.id, f.maxOpenNodes, rf)
		}
		if f.maxOpenNodes < 2 {
			continue
		}
		if err := compareSharing(o, f, rf); err != nil {
			return checked, err
		}
		checked++
	}
	return checked, nil
}

// compareSharing checks file f's sharing, computed with the edge
// buffers o's earlier files left and then with fresh ones, against
// referenceSharing over rf, the same file's reference accumulator.
func compareSharing(o *Online, f *fileAcc, rf *refFileAcc) error {
	wantByte, wantBlock, wantOK := referenceSharing(rf, o.blockBytes)
	for _, fresh := range []bool{false, true} {
		if fresh {
			o.st.byteEdges, o.st.blockEdges = nil, nil
		}
		byteGot, blockGot, ok := o.st.sharing(f, o.blockBytes)
		if byteGot != wantByte || blockGot != wantBlock || ok != wantOK {
			return fmt.Errorf("file %d (fresh buffers %v): sharing = %v, %v, %v; reference %v, %v, %v",
				f.id, fresh, byteGot, blockGot, ok, wantByte, wantBlock, wantOK)
		}
	}
	return nil
}
