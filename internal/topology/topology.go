// Package topology models the paper's Topology Graph TG(S,L): a directed
// graph whose vertices are switches and whose edges are unidirectional
// physical links (Definition 1). Each physical link carries one or more
// virtual channels; a (link, VC) pair is a Channel, the unit of resource
// the deadlock-removal algorithm reasons about (Definition 3–4).
//
// The package is deliberately free of routing and traffic concerns; those
// live in internal/route and internal/traffic.
package topology

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
)

// SwitchID identifies a switch (a vertex of TG).
type SwitchID int

// LinkID identifies a unidirectional physical link (an edge of TG).
type LinkID int

// Switch is a vertex of the topology graph.
type Switch struct {
	ID   SwitchID
	Name string
}

// Link is a unidirectional physical link between two switches. VCs is the
// number of virtual channels provisioned on the link; every link starts
// with one and the deadlock-removal algorithm may add more.
type Link struct {
	ID   LinkID
	From SwitchID
	To   SwitchID
	VCs  int
}

// Topology is a mutable topology graph. The zero value is empty and ready
// to use; prefer New for capacity hints.
type Topology struct {
	Name string

	switches []Switch
	links    []Link
	// out and in hold each switch's leaving and entering link IDs in
	// insertion order, indexed by SwitchID and grown by AddSwitch.
	out    [][]LinkID
	in     [][]LinkID
	byPair map[[2]SwitchID]LinkID

	// coreAttach maps an application core ID (from the communication
	// graph) to the switch its network interface connects to.
	coreAttach map[int]SwitchID

	// faulted masks administratively-down links (see fault.go). A nil map
	// means no faults; lookups on nil are fine, so it is allocated lazily.
	faulted map[LinkID]bool
}

// New returns an empty topology with the given name.
func New(name string) *Topology {
	return &Topology{
		Name:       name,
		byPair:     make(map[[2]SwitchID]LinkID),
		coreAttach: make(map[int]SwitchID),
	}
}

// NewSized is New with room for the given numbers of switches, links
// and attached cores, and for degree links leaving and degree entering
// each switch, so a generator that knows its counts builds without
// growing a slice or map one insert at a time. Give exact counts: the
// maps keep any spare room, and every Clone copies it.
func NewSized(name string, switches, links, cores, degree int) *Topology {
	// Every switch's two link lists are carved ahead from one array and
	// parked past the end of out and in, where AddSwitch picks them up.
	// Each is capped at degree, so a switch that outgrows it reallocates
	// instead of writing into its neighbour's.
	backing := make([]LinkID, 2*switches*degree)
	out, in := make([][]LinkID, switches), make([][]LinkID, switches)
	for sw := range out {
		lo := 2 * sw * degree
		out[sw] = backing[lo : lo : lo+degree]
		in[sw] = backing[lo+degree : lo+degree : lo+2*degree]
	}
	return &Topology{
		Name:       name,
		switches:   make([]Switch, 0, switches),
		links:      make([]Link, 0, links),
		out:        out[:0],
		in:         in[:0],
		byPair:     make(map[[2]SwitchID]LinkID, links),
		coreAttach: make(map[int]SwitchID, cores),
	}
}

func (t *Topology) init() {
	if t.byPair == nil {
		t.byPair = make(map[[2]SwitchID]LinkID)
		t.coreAttach = make(map[int]SwitchID)
	}
}

// AddSwitch appends a new switch and returns its ID. An empty name is
// replaced by "SW<id+1>" to match the paper's figures.
func (t *Topology) AddSwitch(name string) SwitchID {
	t.init()
	id := SwitchID(len(t.switches))
	if name == "" {
		name = "SW" + strconv.Itoa(int(id)+1)
	}
	t.switches = append(t.switches, Switch{ID: id, Name: name})
	// Past their length, out and in hold nil, or the empty lists
	// NewSized carved; either is the new switch's.
	if int(id) < cap(t.out) && int(id) < cap(t.in) {
		t.out, t.in = t.out[:id+1], t.in[:id+1]
	} else {
		t.out = append(t.out, nil)
		t.in = append(t.in, nil)
	}
	return id
}

// AddLink inserts a unidirectional physical link from→to with one VC and
// returns its ID. It returns an error for unknown endpoints, self-links,
// or a duplicate (from, to) pair — parallel physical links are expressed
// as extra VCs, matching the paper's cost model.
func (t *Topology) AddLink(from, to SwitchID) (LinkID, error) {
	t.init()
	if !t.ValidSwitch(from) || !t.ValidSwitch(to) {
		return 0, fmt.Errorf("topology: link %d→%d references unknown switch", from, to)
	}
	if from == to {
		return 0, fmt.Errorf("topology: self-link on switch %d", from)
	}
	key := [2]SwitchID{from, to}
	if _, dup := t.byPair[key]; dup {
		return 0, fmt.Errorf("topology: duplicate link %d→%d (add a VC instead)", from, to)
	}
	id := LinkID(len(t.links))
	t.links = append(t.links, Link{ID: id, From: from, To: to, VCs: 1})
	t.out[from] = append(t.out[from], id)
	t.in[to] = append(t.in[to], id)
	t.byPair[key] = id
	return id, nil
}

// MustAddLink is AddLink for programmatic construction where the inputs
// are known valid; it panics on error.
func (t *Topology) MustAddLink(from, to SwitchID) LinkID {
	id, err := t.AddLink(from, to)
	if err != nil {
		panic(err)
	}
	return id
}

// AddBidi adds a pair of opposing links between a and b and returns their
// IDs (a→b first).
func (t *Topology) AddBidi(a, b SwitchID) (LinkID, LinkID, error) {
	ab, err := t.AddLink(a, b)
	if err != nil {
		return 0, 0, err
	}
	ba, err := t.AddLink(b, a)
	if err != nil {
		return 0, 0, err
	}
	return ab, ba, nil
}

// AddVC provisions one more virtual channel on the given link and returns
// the index of the new VC. Faulted links cannot grow — a failed link has
// no working wires to multiplex another VC onto.
func (t *Topology) AddVC(id LinkID) (int, error) {
	if !t.ValidLink(id) {
		return 0, fmt.Errorf("topology: AddVC on unknown link %d", id)
	}
	if t.faulted[id] {
		return 0, fmt.Errorf("topology: AddVC on faulted link %d", id)
	}
	t.links[id].VCs++
	return t.links[id].VCs - 1, nil
}

// ValidSwitch reports whether id names an existing switch.
func (t *Topology) ValidSwitch(id SwitchID) bool {
	return id >= 0 && int(id) < len(t.switches)
}

// ValidLink reports whether id names an existing link.
func (t *Topology) ValidLink(id LinkID) bool {
	return id >= 0 && int(id) < len(t.links)
}

// Switch returns the switch with the given ID; it panics on a bad ID.
func (t *Topology) Switch(id SwitchID) Switch {
	if !t.ValidSwitch(id) {
		panic(fmt.Sprintf("topology: unknown switch %d", id))
	}
	return t.switches[id]
}

// Link returns the link with the given ID; it panics on a bad ID.
func (t *Topology) Link(id LinkID) Link {
	if !t.ValidLink(id) {
		panic(fmt.Sprintf("topology: unknown link %d", id))
	}
	return t.links[id]
}

// NumSwitches reports the number of switches.
func (t *Topology) NumSwitches() int { return len(t.switches) }

// NumLinks reports the number of physical links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Switches returns a copy of the switch list.
func (t *Topology) Switches() []Switch {
	out := make([]Switch, len(t.switches))
	copy(out, t.switches)
	return out
}

// Links returns a copy of the link list.
func (t *Topology) Links() []Link {
	out := make([]Link, len(t.links))
	copy(out, t.links)
	return out
}

// OutLinks returns the IDs of links leaving sw, in insertion order (nil
// for an unknown switch).
func (t *Topology) OutLinks(sw SwitchID) []LinkID {
	if !t.ValidSwitch(sw) {
		return nil
	}
	return append([]LinkID(nil), t.out[sw]...)
}

// InLinks returns the IDs of links entering sw, in insertion order (nil
// for an unknown switch).
func (t *Topology) InLinks(sw SwitchID) []LinkID {
	if !t.ValidSwitch(sw) {
		return nil
	}
	return append([]LinkID(nil), t.in[sw]...)
}

// FindLink returns the link from→to, if present.
func (t *Topology) FindLink(from, to SwitchID) (LinkID, bool) {
	id, ok := t.byPair[[2]SwitchID{from, to}]
	return id, ok
}

// AttachCore records that application core `core` is connected (through
// its network interface) to switch sw. Re-attaching moves the core.
func (t *Topology) AttachCore(core int, sw SwitchID) error {
	t.init()
	if !t.ValidSwitch(sw) {
		return fmt.Errorf("topology: attach core %d to unknown switch %d", core, sw)
	}
	t.coreAttach[core] = sw
	return nil
}

// SwitchOf returns the switch a core is attached to.
func (t *Topology) SwitchOf(core int) (SwitchID, bool) {
	sw, ok := t.coreAttach[core]
	return sw, ok
}

// Cores returns the attached core IDs in ascending order.
func (t *Topology) Cores() []int {
	out := make([]int, 0, len(t.coreAttach))
	for c := range t.coreAttach {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// CoresAt returns the core IDs attached to switch sw in ascending order.
func (t *Topology) CoresAt(sw SwitchID) []int {
	var out []int
	for c, s := range t.coreAttach {
		if s == sw {
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

// TotalVCs returns the total number of channels (sum of VCs over links).
func (t *Topology) TotalVCs() int {
	n := 0
	for _, l := range t.links {
		n += l.VCs
	}
	return n
}

// ExtraVCs returns the number of channels beyond the baseline of one per
// physical link — the |L'|−|L| quantity the paper minimizes.
func (t *Topology) ExtraVCs() int { return t.TotalVCs() - len(t.links) }

// MaxVCs returns the largest VC count on any link (1 for an empty
// topology's sake it returns 0 when there are no links).
func (t *Topology) MaxVCs() int {
	m := 0
	for _, l := range t.links {
		if l.VCs > m {
			m = l.VCs
		}
	}
	return m
}

// Degree returns the number of in plus out physical links at sw (0 for
// an unknown switch). Core attachments are not counted.
func (t *Topology) Degree(sw SwitchID) int {
	if !t.ValidSwitch(sw) {
		return 0
	}
	return len(t.out[sw]) + len(t.in[sw])
}

// Clone returns a deep copy of the topology.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		Name:       t.Name,
		switches:   append([]Switch(nil), t.switches...),
		links:      append([]Link(nil), t.links...),
		byPair:     maps.Clone(t.byPair),
		coreAttach: maps.Clone(t.coreAttach),
	}
	c.init() // a zero-value original has nil maps
	// Both adjacency indexes share one backing array. Each sub-slice is
	// capped at its length, so an AddLink on the clone reallocates that
	// switch's list instead of writing into its neighbour's.
	backing := make([]LinkID, 0, 2*len(t.links))
	c.out, backing = cloneAdjacency(t.out, backing)
	c.in, _ = cloneAdjacency(t.in, backing)
	if len(t.faulted) > 0 {
		c.faulted = maps.Clone(t.faulted)
	}
	return c
}

// cloneAdjacency copies adj into the tail of backing and returns the copy
// and the grown backing array.
func cloneAdjacency(adj [][]LinkID, backing []LinkID) ([][]LinkID, []LinkID) {
	out := make([][]LinkID, len(adj))
	for sw, ids := range adj {
		start := len(backing)
		backing = append(backing, ids...)
		out[sw] = backing[start:len(backing):len(backing)]
	}
	return out, backing
}

// Validate checks structural invariants: link endpoints exist, no
// duplicate (from,to) pairs, VCs >= 1, core attachments reference valid
// switches, and the adjacency indexes agree with the link list.
func (t *Topology) Validate() error {
	seen := make(map[[2]SwitchID]bool, len(t.links))
	for _, l := range t.links {
		if !t.ValidSwitch(l.From) || !t.ValidSwitch(l.To) {
			return fmt.Errorf("topology %q: link %d has unknown endpoint", t.Name, l.ID)
		}
		if l.From == l.To {
			return fmt.Errorf("topology %q: link %d is a self-link", t.Name, l.ID)
		}
		if l.VCs < 1 {
			return fmt.Errorf("topology %q: link %d has %d VCs", t.Name, l.ID, l.VCs)
		}
		key := [2]SwitchID{l.From, l.To}
		if seen[key] {
			return fmt.Errorf("topology %q: duplicate link %d→%d", t.Name, l.From, l.To)
		}
		seen[key] = true
	}
	for core, sw := range t.coreAttach {
		if !t.ValidSwitch(sw) {
			return fmt.Errorf("topology %q: core %d attached to unknown switch %d", t.Name, core, sw)
		}
	}
	nOut, nIn := 0, 0
	for _, ids := range t.out {
		nOut += len(ids)
	}
	for _, ids := range t.in {
		nIn += len(ids)
	}
	if nOut != len(t.links) || nIn != len(t.links) {
		return fmt.Errorf("topology %q: adjacency index out of sync (%d out, %d in, %d links)",
			t.Name, nOut, nIn, len(t.links))
	}
	return nil
}
