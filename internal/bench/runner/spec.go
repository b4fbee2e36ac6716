package runner

import (
	"fmt"
	"math"
	"regexp"
	"strconv"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/regular"
	"github.com/nocdr/nocdr/internal/traffic"
)

// Size limits on what a grid may ask for. Grid.Validate enforces both
// before anything is built, and a grid beyond either is an
// nocerr.ErrInvalidInput.
const (
	// MaxSpecCores is the most cores one benchmark spec may name: a
	// 64×64 grid. Each preset dimension is checked against it before the
	// two are multiplied.
	MaxSpecCores = 4096
	// MaxGridCells is the most cells a grid's cross product may hold.
	MaxGridCells = 1 << 16
)

var (
	randSpec    = regexp.MustCompile(`^rand:(\d+)x(\d+)$`)
	patternSpec = regexp.MustCompile(`^(transpose|bitrev):(\d+)$`)
	hotspotSpec = regexp.MustCompile(`^hotspot:(\d+)(?:x(\d+))?$`)
	presetSpec  = regexp.MustCompile(`^(mesh|torus):(\d+)(?:x(\d+))?(?::(transpose|bitrev|hotspot|uniform))?$`)
)

// spec is a parsed benchmark spec (see Grid.Benchmarks for the grammar):
// its family and the integers it names. Grid.Validate checks a spec from
// this value alone; the cell evaluation builds its design from it.
type spec struct {
	text string // the spec as written; a paper benchmark's name
	// family is rand, transpose, bitrev, hotspot, mesh or torus, or empty
	// for a paper benchmark. A preset's traffic is a spec of the family
	// its pattern names, which may also be uniform (see trafficSpec).
	family string
	// a and b are the family's integers: rand's cores and fan-out,
	// transpose's and bitrev's cores, hotspot's cores and hotspots,
	// uniform's cores and stride, mesh's and torus's columns and rows.
	a, b int
	// pattern is a preset's traffic pattern: transpose, bitrev, hotspot
	// or uniform.
	pattern string
}

// parseSpec parses a benchmark spec. It checks only the numbers: one that
// does not fit an int, or a spec naming more than MaxSpecCores cores, is
// an ErrInvalidInput. What a generator would reject is left to check, and
// text that matches no family parses as a paper benchmark name.
func parseSpec(text string) (spec, error) {
	s := spec{text: text}
	var nums [2]string
	if m := presetSpec.FindStringSubmatch(text); m != nil {
		s.family, nums, s.pattern = m[1], [2]string{m[2], m[3]}, m[4]
		if nums[1] == "" {
			nums[1] = nums[0] // "mesh:<n>" is the square grid n×n
		}
		if s.pattern == "" {
			s.pattern = "uniform"
		}
	} else if m := randSpec.FindStringSubmatch(text); m != nil {
		s.family, nums = "rand", [2]string{m[1], m[2]}
	} else if m := patternSpec.FindStringSubmatch(text); m != nil {
		s.family, nums[0] = m[1], m[2]
	} else if m := hotspotSpec.FindStringSubmatch(text); m != nil {
		s.family, nums = "hotspot", [2]string{m[1], m[2]}
	} else {
		return s, nil
	}
	var v [2]int
	for i, digits := range nums {
		if digits == "" {
			continue
		}
		n, err := strconv.Atoi(digits)
		if err != nil {
			return spec{}, fmt.Errorf("%w: benchmark spec %q: %s does not fit an int", nocerr.ErrInvalidInput, text, digits)
		}
		v[i] = n
	}
	s.a, s.b = v[0], v[1]
	if s.family == "hotspot" && nums[1] == "" {
		s.b = defaultHotspots(s.a)
	}
	if s.a > MaxSpecCores || (s.preset() && (s.b > MaxSpecCores || s.a*s.b > MaxSpecCores)) {
		return spec{}, fmt.Errorf("%w: benchmark spec %q names more than %d cores", nocerr.ErrInvalidInput, text, MaxSpecCores)
	}
	return s, nil
}

// defaultHotspots is the hotspot family's fan-in when a spec omits it.
func defaultHotspots(cores int) int { return max(1, cores/8) }

// preset reports whether the spec is a regular-topology preset, which
// brings its own topology and routes and so pins its switch count.
func (s spec) preset() bool { return s.family == "mesh" || s.family == "torus" }

// trafficSpec is a preset's traffic pattern as a spec of its own: the
// synthesized family of the same name over the grid's cores, or uniform
// traffic with every core sending half-way round.
func (s spec) trafficSpec() spec {
	n := s.a * s.b
	p := spec{family: s.pattern, a: n}
	switch s.pattern {
	case "hotspot":
		p.b = defaultHotspots(n)
	case "uniform":
		p.b = n / 2
	}
	return p
}

// check returns the error building the spec's design fails with, or nil,
// without building anything: it runs the argument checks the generators
// themselves run first, in the order the build reaches them.
func (s spec) check() error {
	switch s.family {
	case "mesh", "torus":
		if err := regular.CheckGrid(s.a, s.b); err != nil {
			return err
		}
		if err := s.checkSquare(); err != nil {
			return err
		}
		return s.trafficSpec().check()
	case "rand":
		return s.checkRand()
	case "transpose":
		return traffic.CheckTranspose(s.a)
	case "bitrev":
		return traffic.CheckBitReversal(s.a)
	case "hotspot":
		return traffic.CheckHotspot(s.a, s.b)
	case "uniform":
		return regular.CheckUniformTraffic(s.a, s.b)
	}
	return traffic.CheckName(s.text)
}

// checkRand is the rand family's range check: RandomKOut's own, reported
// against the spec.
func (s spec) checkRand() error {
	if traffic.CheckRandomKOut(s.a, s.b) != nil {
		return fmt.Errorf("runner: rand spec %q out of range (need 2 ≤ cores, 1 ≤ fanout < cores)", s.text)
	}
	return nil
}

// checkSquare rejects a transpose preset on a grid that is not square,
// which the pattern's core count alone cannot tell (2x8 has 16 cores).
func (s spec) checkSquare() error {
	if s.pattern == "transpose" && s.a != s.b {
		return fmt.Errorf("runner: transpose preset needs a square grid, got %dx%d", s.a, s.b)
	}
	return nil
}

// graph builds the traffic graph of a synthesized spec or of a preset's
// trafficSpec; seed instantiates the rand family, the other families are
// deterministic.
func (s spec) graph(seed int64) (*traffic.Graph, error) {
	switch s.family {
	case "rand":
		if err := s.checkRand(); err != nil {
			return nil, err
		}
		return traffic.RandomKOut(fmt.Sprintf("%s#%d", s.text, seed), s.a, s.b, seed), nil
	case "transpose":
		return traffic.Transpose(s.a)
	case "bitrev":
		return traffic.BitReversal(s.a)
	case "hotspot":
		return traffic.Hotspot(s.a, s.b)
	case "uniform":
		return regular.UniformTraffic(s.a, s.b, 100)
	}
	return traffic.ByName(s.text)
}

// build materializes a preset's grid topology and traffic pattern.
func (s spec) build() (*regular.Grid, *traffic.Graph, error) {
	var grid *regular.Grid
	var err error
	if s.family == "torus" {
		grid, err = regular.Torus(s.a, s.b)
	} else {
		grid, err = regular.Mesh(s.a, s.b)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := s.checkSquare(); err != nil {
		return nil, nil, err
	}
	g, err := s.trafficSpec().graph(0)
	if err != nil {
		return nil, nil, err
	}
	return grid, g, nil
}

// cellCount is the number of cells Jobs enumerates for the normalized
// grid g when presets of its benchmarks are regular-topology presets; ok
// is false when the count overflows an int. Presets cross the routing
// axis and synthesized benchmarks the switch-count axis, never both.
func (g Grid) cellCount(presets int) (n int, ok bool) {
	perDesign, ok1 := mulInt(len(g.Policies), len(g.Seeds))
	p, ok2 := mulInt(presets, max(1, len(g.Routings)))
	s, ok3 := mulInt(len(g.Benchmarks)-presets, len(g.SwitchCounts))
	if !ok1 || !ok2 || !ok3 || p > math.MaxInt-s {
		return 0, false
	}
	return mulInt(p+s, perDesign)
}

// mulInt returns a*b for non-negative a and b, and false if the product
// overflows an int.
func mulInt(a, b int) (int, bool) {
	if a > 0 && b > math.MaxInt/a {
		return 0, false
	}
	return a * b, true
}
