package route

import (
	"reflect"
	"slices"
	"testing"

	"github.com/nocdr/nocdr/internal/topology"
)

// copyFixture is a set with neighbouring flows and paths, a local
// (empty) path and an unset flow slot.
func copyFixture() *RouteSet {
	ch := func(ids ...int) []topology.Channel {
		out := make([]topology.Channel, len(ids))
		for i, id := range ids {
			out[i] = topology.Chan(topology.LinkID(id), 0)
		}
		return out
	}
	s := NewRouteSet(4)
	s.AppendPath(0, ch(0, 1))
	s.AppendPath(0, ch(2, 3))
	s.AppendPath(1, nil)
	s.AppendPath(3, ch(4, 5, 6))
	return s
}

// appendEverywhere appends one channel to every path and one path to
// every flow of s, as a caller owning a copy may.
func appendEverywhere(s *RouteSet) {
	extra := topology.Chan(99, 9)
	for f := range s.paths {
		for i := range s.paths[f] {
			s.paths[f][i] = append(s.paths[f][i], extra)
		}
		s.paths[f] = append(s.paths[f], []topology.Channel{extra})
	}
}

// TestRouteSetCloneIsolated pins the one-array Clone: growing any path
// or path list of the copy leaves both the original and the copy's other
// paths as they were, and a local path stays nil.
func TestRouteSetCloneIsolated(t *testing.T) {
	orig := copyFixture()
	want := copyFixture()
	c := orig.Clone()
	if !reflect.DeepEqual(c, want) {
		t.Fatalf("clone %v differs from original %v", c.paths, want.paths)
	}
	if c.paths[1][0] != nil || c.paths[2] != nil {
		t.Fatal("clone turned a nil path or flow into an empty one")
	}
	appendEverywhere(c)
	if !reflect.DeepEqual(orig, want) {
		t.Fatal("appending to the clone changed the original")
	}
	for f := range want.paths {
		for i, p := range want.paths[f] {
			if got := c.paths[f][i]; !slices.Equal(got[:len(got)-1], p) {
				t.Fatalf("flow %d path %d: %v after appends, want %v plus one channel", f, i, got, p)
			}
		}
	}
}

// TestTableCloneIsolated is TestRouteSetCloneIsolated for Table.Clone.
func TestTableCloneIsolated(t *testing.T) {
	orig, _ := copyFixture().Flatten()
	want, _ := copyFixture().Flatten()
	c := orig.Clone()
	if !reflect.DeepEqual(c, want) {
		t.Fatal("table clone differs from the original")
	}
	if c.Route(2).Channels != nil {
		t.Fatal("clone turned a local route's nil channels into an empty slice")
	}
	for _, r := range c.Routes() {
		r.Channels = append(r.Channels, topology.Chan(99, 9))
	}
	if !reflect.DeepEqual(orig, want) {
		t.Fatal("appending to the clone changed the original")
	}
	for _, r := range want.Routes() {
		if got := c.Route(r.FlowID).Channels; !slices.Equal(got[:len(got)-1], r.Channels) {
			t.Fatalf("flow %d: %v after appends, want %v plus one channel", r.FlowID, got, r.Channels)
		}
	}
}

// TestUnflattenAdopts pins the consuming Unflatten: the set takes the
// table's channel slices without copying them, keeps flows and paths
// apart under appends, and leaves local paths nil.
func TestUnflattenAdopts(t *testing.T) {
	want := copyFixture()
	tab, refs := copyFixture().Flatten()
	s, err := Unflatten(tab, refs, want.NumFlows())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("round trip %v, want %v", s.paths, want.paths)
	}
	if &s.paths[3][0][0] != &tab.Route(3).Channels[0] {
		t.Fatal("Unflatten copied a path instead of adopting it")
	}
	if s.paths[1][0] != nil {
		t.Fatal("a local path came back non-nil")
	}
	appendEverywhere(s)
	for f := range want.paths {
		for i, p := range want.paths[f] {
			if got := s.paths[f][i]; !slices.Equal(got[:len(got)-1], p) {
				t.Fatalf("flow %d path %d: %v after appends, want %v plus one channel", f, i, got, p)
			}
		}
	}
}
