package topology

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// paperRing builds the 4-switch ring of Figure 1: SW1→SW2→SW3→SW4→SW1
// with links L1..L4 (IDs 0..3).
func paperRing(t *testing.T) *Topology {
	t.Helper()
	tp := New("figure1")
	for i := 0; i < 4; i++ {
		tp.AddSwitch("")
	}
	for i := 0; i < 4; i++ {
		if _, err := tp.AddLink(SwitchID(i), SwitchID((i+1)%4)); err != nil {
			t.Fatalf("AddLink: %v", err)
		}
	}
	return tp
}

func TestAddSwitchNames(t *testing.T) {
	tp := New("t")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("mem")
	if tp.Switch(a).Name != "SW1" {
		t.Errorf("default name = %q, want SW1", tp.Switch(a).Name)
	}
	if tp.Switch(b).Name != "mem" {
		t.Errorf("explicit name = %q", tp.Switch(b).Name)
	}
}

func TestAddLinkValidation(t *testing.T) {
	tp := New("t")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	if _, err := tp.AddLink(a, a); err == nil {
		t.Error("self-link accepted")
	}
	if _, err := tp.AddLink(a, 99); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := tp.AddLink(a, b); err != nil {
		t.Errorf("valid link rejected: %v", err)
	}
	if _, err := tp.AddLink(a, b); err == nil {
		t.Error("duplicate link accepted")
	}
	// Opposite direction is a distinct link.
	if _, err := tp.AddLink(b, a); err != nil {
		t.Errorf("reverse link rejected: %v", err)
	}
}

func TestAddBidi(t *testing.T) {
	tp := New("t")
	a := tp.AddSwitch("")
	b := tp.AddSwitch("")
	ab, ba, err := tp.AddBidi(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Link(ab).From != a || tp.Link(ba).From != b {
		t.Error("AddBidi link directions wrong")
	}
}

func TestAddVC(t *testing.T) {
	tp := paperRing(t)
	vc, err := tp.AddVC(0)
	if err != nil {
		t.Fatal(err)
	}
	if vc != 1 {
		t.Errorf("new VC index = %d, want 1", vc)
	}
	if tp.Link(0).VCs != 2 {
		t.Errorf("link 0 VCs = %d, want 2", tp.Link(0).VCs)
	}
	if tp.ExtraVCs() != 1 {
		t.Errorf("ExtraVCs = %d, want 1", tp.ExtraVCs())
	}
	if tp.TotalVCs() != 5 {
		t.Errorf("TotalVCs = %d, want 5", tp.TotalVCs())
	}
	if _, err := tp.AddVC(99); err == nil {
		t.Error("AddVC on unknown link accepted")
	}
}

func TestAdjacency(t *testing.T) {
	tp := paperRing(t)
	if got := tp.OutLinks(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("OutLinks(0) = %v", got)
	}
	if got := tp.InLinks(0); len(got) != 1 || got[0] != 3 {
		t.Errorf("InLinks(0) = %v", got)
	}
	if tp.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d, want 2", tp.Degree(0))
	}
	if id, ok := tp.FindLink(1, 2); !ok || id != 1 {
		t.Errorf("FindLink(1,2) = %v,%v", id, ok)
	}
	if _, ok := tp.FindLink(2, 1); ok {
		t.Error("FindLink found nonexistent reverse link")
	}
}

func TestCoreAttachment(t *testing.T) {
	tp := paperRing(t)
	if err := tp.AttachCore(7, 2); err != nil {
		t.Fatal(err)
	}
	if err := tp.AttachCore(3, 0); err != nil {
		t.Fatal(err)
	}
	if err := tp.AttachCore(9, 99); err == nil {
		t.Error("attach to unknown switch accepted")
	}
	if sw, ok := tp.SwitchOf(7); !ok || sw != 2 {
		t.Errorf("SwitchOf(7) = %v,%v", sw, ok)
	}
	if got := tp.Cores(); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("Cores() = %v", got)
	}
	if got := tp.CoresAt(2); len(got) != 1 || got[0] != 7 {
		t.Errorf("CoresAt(2) = %v", got)
	}
}

func TestChannels(t *testing.T) {
	tp := paperRing(t)
	tp.AddVC(1)
	chs := tp.Channels()
	if len(chs) != 5 {
		t.Fatalf("Channels() returned %d, want 5", len(chs))
	}
	if !tp.ValidChannel(Chan(1, 1)) {
		t.Error("Chan(1,1) should be valid after AddVC")
	}
	if tp.ValidChannel(Chan(0, 1)) {
		t.Error("Chan(0,1) should be invalid")
	}
	if tp.ValidChannel(Chan(9, 0)) {
		t.Error("channel on unknown link valid")
	}
}

func TestChannelName(t *testing.T) {
	tp := paperRing(t)
	cases := []struct {
		c    Channel
		want string
	}{
		{Chan(0, 0), "L1"},
		{Chan(0, 1), "L1'"},
		{Chan(0, 2), "L1''"},
		{Chan(0, 3), "L1'3"},
		{Chan(3, 0), "L4"},
	}
	for _, tc := range cases {
		if got := tp.ChannelName(tc.c); got != tc.want {
			t.Errorf("ChannelName(%v) = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestChannelEndpoints(t *testing.T) {
	tp := paperRing(t)
	from, to := tp.ChannelEndpoints(Chan(2, 0))
	if from != 2 || to != 3 {
		t.Errorf("ChannelEndpoints(L3) = %d→%d, want 2→3", from, to)
	}
}

func TestValidate(t *testing.T) {
	tp := paperRing(t)
	if err := tp.Validate(); err != nil {
		t.Errorf("valid topology rejected: %v", err)
	}
	tp.links[0].VCs = 0
	if err := tp.Validate(); err == nil {
		t.Error("zero-VC link accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tp := paperRing(t)
	tp.AttachCore(1, 1)
	c := tp.Clone()
	c.AddVC(0)
	c.AddSwitch("")
	c.AttachCore(2, 0)
	if tp.Link(0).VCs != 1 {
		t.Error("clone AddVC affected original")
	}
	if tp.NumSwitches() != 4 {
		t.Error("clone AddSwitch affected original")
	}
	if _, ok := tp.SwitchOf(2); ok {
		t.Error("clone AttachCore affected original")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}

	// Adjacency: a link added to either copy after cloning shows in that
	// copy's lists only, and leaves every other switch's lists intact.
	type adjacency struct {
		out, in []LinkID
		degree  int
	}
	snapshot := func(tp *Topology) []adjacency {
		var s []adjacency
		for sw := 0; sw < tp.NumSwitches(); sw++ {
			id := SwitchID(sw)
			s = append(s, adjacency{tp.OutLinks(id), tp.InLinks(id), tp.Degree(id)})
		}
		return s
	}
	orig := paperRing(t)
	clone := orig.Clone()
	origBefore := snapshot(orig)
	cl := clone.MustAddLink(0, 2) // switch 0's out-list is followed by switch 1's
	if got := snapshot(orig); !reflect.DeepEqual(got, origBefore) {
		t.Errorf("AddLink on the clone changed the original's adjacency:\n got %v\nwant %v", got, origBefore)
	}
	cloneBefore := snapshot(clone)
	ol := orig.MustAddLink(1, 3)
	if got := snapshot(clone); !reflect.DeepEqual(got, cloneBefore) {
		t.Errorf("AddLink on the original changed the clone's adjacency:\n got %v\nwant %v", got, cloneBefore)
	}
	wantClone := []adjacency{
		{[]LinkID{0, cl}, []LinkID{3}, 3},
		{[]LinkID{1}, []LinkID{0}, 2},
		{[]LinkID{2}, []LinkID{1, cl}, 3},
		{[]LinkID{3}, []LinkID{2}, 2},
	}
	wantOrig := []adjacency{
		{[]LinkID{0}, []LinkID{3}, 2},
		{[]LinkID{1, ol}, []LinkID{0}, 3},
		{[]LinkID{2}, []LinkID{1}, 2},
		{[]LinkID{3}, []LinkID{2, ol}, 3},
	}
	if got := snapshot(clone); !reflect.DeepEqual(got, wantClone) {
		t.Errorf("clone adjacency after AddLink:\n got %v\nwant %v", got, wantClone)
	}
	if got := snapshot(orig); !reflect.DeepEqual(got, wantOrig) {
		t.Errorf("original adjacency after AddLink:\n got %v\nwant %v", got, wantOrig)
	}
	for _, tp := range []*Topology{orig, clone} {
		if err := tp.Validate(); err != nil {
			t.Errorf("%v", err)
		}
		if tp.OutLinks(-1) != nil || tp.InLinks(4) != nil || tp.Degree(99) != 0 {
			t.Error("unknown switch has adjacency")
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tp := paperRing(t)
	tp.AddVC(2)
	tp.AttachCore(0, 0)
	tp.AttachCore(5, 3)
	var buf bytes.Buffer
	if err := tp.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tp.Name || got.NumSwitches() != 4 || got.NumLinks() != 4 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.Link(2).VCs != 2 {
		t.Errorf("VCs lost in round trip: %d", got.Link(2).VCs)
	}
	if sw, ok := got.SwitchOf(5); !ok || sw != 3 {
		t.Error("core attachment lost in round trip")
	}
}

func TestReadRejectsBadJSON(t *testing.T) {
	cases := []string{
		`{`,
		`{"name":"x","switches":[{"id":1,"name":"a"}],"links":[]}`,                                                     // non-dense switch ID
		`{"name":"x","switches":[{"id":0,"name":"a"},{"id":1,"name":"b"}],"links":[{"id":0,"from":0,"to":1,"vcs":0}]}`, // zero VCs
		`{"name":"x","switches":[{"id":0,"name":"a"}],"links":[{"id":0,"from":0,"to":0,"vcs":1}]}`,                     // self link
	}
	for i, src := range cases {
		if _, err := Read(strings.NewReader(src)); err == nil {
			t.Errorf("case %d: bad JSON accepted", i)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	tp := paperRing(t)
	tp.AddVC(0)
	tp.AttachCore(0, 0)
	var buf bytes.Buffer
	if err := tp.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "s0 -> s1", "L1 x2", "core0"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

// Property: a random construction sequence always yields a topology that
// passes Validate and whose JSON round-trips to an identical structure.
func TestRandomTopologyRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tp := New("prop")
		n := 2 + rng.Intn(10)
		for i := 0; i < n; i++ {
			tp.AddSwitch("")
		}
		for i := 0; i < 3*n; i++ {
			a := SwitchID(rng.Intn(n))
			b := SwitchID(rng.Intn(n))
			if a != b {
				tp.AddLink(a, b) // duplicates rejected, fine
			}
		}
		for i := 0; i < n; i++ {
			if tp.NumLinks() > 0 {
				tp.AddVC(LinkID(rng.Intn(tp.NumLinks())))
			}
			tp.AttachCore(i, SwitchID(rng.Intn(n)))
		}
		if tp.Validate() != nil {
			return false
		}
		var buf bytes.Buffer
		if tp.Write(&buf) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.NumSwitches() != tp.NumSwitches() || got.NumLinks() != tp.NumLinks() ||
			got.TotalVCs() != tp.TotalVCs() || len(got.Cores()) != len(tp.Cores()) {
			return false
		}
		for _, l := range tp.Links() {
			g := got.Link(l.ID)
			if g.From != l.From || g.To != l.To || g.VCs != l.VCs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestNewSizedMatchesNew builds one random topology twice, through New
// and through NewSized with too little, exact and spare room (switches
// beyond the sized count, switches with more links than degree), and
// requires the same adjacency, the same JSON and a valid result. The
// carved lists must stay apart: each switch sees only its own links.
func TestNewSizedMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 9
	type pair struct{ a, b SwitchID }
	var pairs []pair
	for len(pairs) < 30 {
		a, b := SwitchID(rng.Intn(n)), SwitchID(rng.Intn(n))
		if a != b && !slices.Contains(pairs, pair{a, b}) {
			pairs = append(pairs, pair{a, b})
		}
	}
	build := func(top *Topology) *Topology {
		for i := 0; i < n; i++ {
			top.AddSwitch("")
			top.AttachCore(i, SwitchID(i))
		}
		for _, p := range pairs {
			top.MustAddLink(p.a, p.b)
		}
		return top
	}
	want := build(New("t"))
	wantJSON, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []struct{ switches, links, degree int }{
		{0, 0, 0}, {n, 30, 1}, {n, 30, 4}, {n / 2, 10, 2}, {2 * n, 60, 8},
	} {
		got := build(NewSized("t", size.switches, size.links, n, size.degree))
		for sw := SwitchID(0); sw < n; sw++ {
			if !reflect.DeepEqual(got.OutLinks(sw), want.OutLinks(sw)) || !reflect.DeepEqual(got.InLinks(sw), want.InLinks(sw)) {
				t.Fatalf("%+v: switch %d adjacency out %v in %v, want out %v in %v", size, sw,
					got.OutLinks(sw), got.InLinks(sw), want.OutLinks(sw), want.InLinks(sw))
			}
		}
		gotJSON, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("%+v: JSON differs from the New build", size)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("%+v: %v", size, err)
		}
	}
}
