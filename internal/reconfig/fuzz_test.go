package reconfig

import (
	"bytes"
	"context"
	"testing"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
)

// FuzzReconfigDelta drives one live design through an arbitrary fault
// order and pins the two invariants the online path must never lose: the
// committed design stays valid (acyclic union CDG, fault-avoiding
// routes) after every event — failed events included, thanks to rollback
// — and every committed Delta round-trips through JSON byte-identically.
func FuzzReconfigDelta(f *testing.F) {
	g := mustGrid(f, false, 4, 4)
	tr := allToAll(f, 16)
	base := buildDesign(f, g, tr, route.OddEven)
	nLinks := base.Topology.NumLinks()

	f.Add([]byte{0})
	f.Add([]byte{3, 3})           // duplicate fault: second must fail cleanly
	f.Add([]byte{7, 21, 42, 250}) // out-of-range bytes wrap onto valid links
	f.Add([]byte{1, 2, 4, 8, 16, 32})
	f.Fuzz(func(t *testing.T, faults []byte) {
		if len(faults) > 6 {
			faults = faults[:6] // bound per-exec work, arbitrary order stays covered
		}
		st, err := NewState(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range faults {
			link := topology.LinkID(int(b) % nLinks)
			delta, err := st.ApplyFault(context.Background(), link, Options{SkipSim: true})
			if err != nil {
				// Legal refusals: repeated fault, disconnection, VC budget.
				// The design must have been rolled back intact either way.
				if verr := st.Design().Verify(); verr != nil {
					t.Fatalf("fault %d failed (%v) and left design invalid: %v", link, err, verr)
				}
				continue
			}
			if verr := st.Design().Verify(); verr != nil {
				t.Fatalf("fault %d committed an invalid design: %v", link, verr)
			}
			j1, err := delta.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			back := &Delta{}
			if err := back.UnmarshalJSON(j1); err != nil {
				t.Fatalf("delta does not re-parse: %v", err)
			}
			j2, err := back.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1, j2) {
				t.Fatalf("delta JSON not stable:\n%s\nvs\n%s", j1, j2)
			}
		}
	})
}
