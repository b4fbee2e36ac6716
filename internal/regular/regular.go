// Package regular generates the classic regular NoC topologies — 2D
// meshes, 2D tori and rings — together with dimension-ordered (XY)
// routing. The paper's method "can be applied to any NoC topology and
// routing function"; this package supplies the regular end of that
// spectrum and the canonical stress case: dimension-ordered routing on a
// torus is deadlock-prone through its wrap-around links (the textbook
// dateline problem), and the removal algorithm must repair it with a
// dateline-like sprinkling of extra VCs.
//
// Every generator attaches core i to switch i, so a traffic graph with
// one core per switch plugs straight in.
package regular

import (
	"fmt"

	"github.com/nocdr/nocdr/internal/route"
	"github.com/nocdr/nocdr/internal/topology"
	"github.com/nocdr/nocdr/internal/traffic"
)

// Grid describes a generated 2D topology: switch (x, y) has ID y*Cols+x.
type Grid struct {
	Topology *topology.Topology
	Cols     int
	Rows     int
	Wrap     bool // torus if true
}

// SwitchAt returns the switch ID at grid coordinate (x, y).
func (g *Grid) SwitchAt(x, y int) topology.SwitchID {
	return topology.SwitchID(y*g.Cols + x)
}

// Coord returns the grid coordinate of a switch ID.
func (g *Grid) Coord(sw topology.SwitchID) (x, y int) {
	return int(sw) % g.Cols, int(sw) / g.Cols
}

// Mesh builds a cols×rows bidirectional 2D mesh with one core per switch.
func Mesh(cols, rows int) (*Grid, error) {
	return grid(cols, rows, false)
}

// Torus builds a cols×rows bidirectional 2D torus (mesh plus wrap-around
// links) with one core per switch. For cols or rows of 2 the wrap link
// would duplicate the mesh link, so those dimensions stay unwrapped.
func Torus(cols, rows int) (*Grid, error) {
	return grid(cols, rows, true)
}

// CheckGrid returns the error Mesh and Torus fail with on a cols×rows
// grid, or nil if they accept it. It builds nothing, so a caller can
// validate grid dimensions ahead of construction.
func CheckGrid(cols, rows int) error {
	if cols < 2 || rows < 1 {
		return fmt.Errorf("regular: grid %dx%d too small", cols, rows)
	}
	return nil
}

func grid(cols, rows int, wrap bool) (*Grid, error) {
	if err := CheckGrid(cols, rows); err != nil {
		return nil, err
	}
	top := topology.New(fmt.Sprintf("%s_%dx%d", kind(wrap), cols, rows))
	g := &Grid{Topology: top, Cols: cols, Rows: rows, Wrap: wrap}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			sw := top.AddSwitch(fmt.Sprintf("s%d_%d", x, y))
			if err := top.AttachCore(int(sw), sw); err != nil {
				return nil, err
			}
		}
	}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if x+1 < cols {
				if _, _, err := top.AddBidi(g.SwitchAt(x, y), g.SwitchAt(x+1, y)); err != nil {
					return nil, err
				}
			} else if wrap && cols > 2 {
				if _, _, err := top.AddBidi(g.SwitchAt(x, y), g.SwitchAt(0, y)); err != nil {
					return nil, err
				}
			}
		}
	}
	for y := 0; y < rows; y++ {
		for x := 0; x < cols; x++ {
			if y+1 < rows {
				if _, _, err := top.AddBidi(g.SwitchAt(x, y), g.SwitchAt(x, y+1)); err != nil {
					return nil, err
				}
			} else if wrap && rows > 2 {
				if _, _, err := top.AddBidi(g.SwitchAt(x, y), g.SwitchAt(x, 0)); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

func kind(wrap bool) string {
	if wrap {
		return "torus"
	}
	return "mesh"
}

// Ring builds an n-switch ring with one core per switch; unidirectional
// rings are the minimal deadlock-prone topology (the paper's Figure 1).
func Ring(n int, bidirectional bool) (*Grid, error) {
	if n < 3 {
		return nil, fmt.Errorf("regular: ring of %d switches too small", n)
	}
	top := topology.New(fmt.Sprintf("ring_%d", n))
	for i := 0; i < n; i++ {
		sw := top.AddSwitch("")
		if err := top.AttachCore(i, sw); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		next := topology.SwitchID((i + 1) % n)
		if bidirectional {
			if _, _, err := top.AddBidi(topology.SwitchID(i), next); err != nil {
				return nil, err
			}
		} else {
			if _, err := top.AddLink(topology.SwitchID(i), next); err != nil {
				return nil, err
			}
		}
	}
	return &Grid{Topology: top, Cols: n, Rows: 1, Wrap: true}, nil
}

// DORRoutes computes dimension-ordered (X then Y) routes for every flow:
// on a mesh this is the textbook deadlock-free XY routing; on a torus
// each dimension takes the minimal direction (ties go positive), crossing
// the wrap-around link when shorter — the configuration whose CDG cycles
// the removal algorithm exists to break.
func DORRoutes(g *Grid, tg *traffic.Graph) (*route.Table, error) {
	tab := route.NewTable(tg.NumFlows())
	for _, f := range tg.Flows() {
		src, ok := g.Topology.SwitchOf(int(f.Src))
		if !ok {
			return nil, fmt.Errorf("regular: core %d not attached", f.Src)
		}
		dst, ok := g.Topology.SwitchOf(int(f.Dst))
		if !ok {
			return nil, fmt.Errorf("regular: core %d not attached", f.Dst)
		}
		var channels []topology.Channel
		cx, cy := g.Coord(src)
		dx, dy := g.Coord(dst)
		// X dimension first.
		for cx != dx {
			step := dirStep(cx, dx, g.Cols, g.Wrap)
			next := (cx + step + g.Cols) % g.Cols
			id, ok := g.Topology.FindLink(g.SwitchAt(cx, cy), g.SwitchAt(next, cy))
			if !ok {
				return nil, fmt.Errorf("regular: missing X link (%d,%d)→(%d,%d)", cx, cy, next, cy)
			}
			if g.Topology.Faulted(id) {
				return nil, fmt.Errorf("regular: DOR route for flow %d crosses faulted link %d (deterministic DOR cannot route around faults; use an adaptive routing)", f.ID, id)
			}
			channels = append(channels, topology.Chan(id, 0))
			cx = next
		}
		// Then Y.
		for cy != dy {
			step := dirStep(cy, dy, g.Rows, g.Wrap)
			next := (cy + step + g.Rows) % g.Rows
			id, ok := g.Topology.FindLink(g.SwitchAt(cx, cy), g.SwitchAt(cx, next))
			if !ok {
				return nil, fmt.Errorf("regular: missing Y link (%d,%d)→(%d,%d)", cx, cy, cx, next)
			}
			if g.Topology.Faulted(id) {
				return nil, fmt.Errorf("regular: DOR route for flow %d crosses faulted link %d (deterministic DOR cannot route around faults; use an adaptive routing)", f.ID, id)
			}
			channels = append(channels, topology.Chan(id, 0))
			cy = next
		}
		tab.Set(f.ID, channels)
	}
	return tab, nil
}

// dirStep returns +1 or −1: the minimal-distance direction from cur to
// dst along a dimension of size n, wrapping only when the topology wraps
// (and the dimension is large enough to have wrap links). Ties go +1.
func dirStep(cur, dst, n int, wrap bool) int {
	if !wrap || n <= 2 {
		if dst > cur {
			return 1
		}
		return -1
	}
	fwd := ((dst - cur) + n) % n
	bwd := n - fwd
	if fwd <= bwd {
		return 1
	}
	return -1
}

// UniformTraffic builds a one-core-per-switch traffic graph where every
// core sends one flow to the core `stride` switches ahead (mod n) — the
// classic permutation workload that exercises every wrap link of a ring
// or torus dimension.
func UniformTraffic(n, stride int, bandwidth float64) (*traffic.Graph, error) {
	if err := CheckUniformTraffic(n, stride); err != nil {
		return nil, err
	}
	g := traffic.NewGraph(fmt.Sprintf("uniform_n%d_s%d", n, stride))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for i := 0; i < n; i++ {
		g.MustAddFlow(traffic.CoreID(i), traffic.CoreID((i+stride)%n), bandwidth)
	}
	return g, nil
}

// CheckUniformTraffic returns the error UniformTraffic fails with on n
// cores and the given stride, or nil if it accepts them.
func CheckUniformTraffic(n, stride int) error {
	if n < 2 || stride%n == 0 {
		return fmt.Errorf("regular: bad uniform traffic n=%d stride=%d", n, stride)
	}
	return nil
}
