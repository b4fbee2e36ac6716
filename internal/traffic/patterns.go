package traffic

import (
	"fmt"
	"math/bits"
)

// Synthetic adversarial traffic patterns. The paper evaluates on six SoC
// benchmarks whose communication graphs are application-shaped; these
// generators supply the opposite end of the workload spectrum — the
// classic permutation and hotspot patterns the interconnect literature
// uses to stress routing functions. All are deterministic (no RNG), so a
// sweep cell is reproducible from its spec alone.

// Transpose builds the matrix-transpose permutation on n = k×k cores:
// core (r, c) of the k×k grid sends one flow to core (c, r). Diagonal
// cores (r == c) are their own targets and stay silent. On meshes with
// dimension-ordered routing this pattern concentrates turns along the
// diagonal; it is the canonical adversary for XY routing.
func Transpose(n int) (*Graph, error) {
	if err := CheckTranspose(n); err != nil {
		return nil, err
	}
	k := isqrt(n)
	g := NewGraph(fmt.Sprintf("transpose_%d", n))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			if r == c {
				continue
			}
			g.MustAddFlow(CoreID(r*k+c), CoreID(c*k+r), 100)
		}
	}
	return g, nil
}

// BitReversal builds the bit-reversal permutation on n cores (n a power
// of two): core i sends one flow to the core whose index is i's bit
// pattern reversed within log2(n) bits. Fixed points stay silent. Bit
// reversal maximizes average hop distance under dimension-ordered
// routing and is the standard worst-case permutation for FFT-style
// traffic.
func BitReversal(n int) (*Graph, error) {
	if err := CheckBitReversal(n); err != nil {
		return nil, err
	}
	w := bits.Len(uint(n)) - 1
	g := NewGraph(fmt.Sprintf("bitrev_%d", n))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for i := 0; i < n; i++ {
		j := int(bits.Reverse(uint(i)) >> (bits.UintSize - w))
		if i == j {
			continue
		}
		g.MustAddFlow(CoreID(i), CoreID(j), 100)
	}
	return g, nil
}

// Hotspot builds an n-core graph where cores 0..h-1 are memory-style
// hotspots: every other core sends a heavy request flow to its hotspot
// (i mod h) and receives a lighter reply flow back. The shared targets
// concentrate load the way D35_bot's bottleneck does, but with a
// caller-controlled core count and hotspot fan-in.
func Hotspot(n, h int) (*Graph, error) {
	if err := CheckHotspot(n, h); err != nil {
		return nil, err
	}
	g := NewGraph(fmt.Sprintf("hotspot_%dx%d", n, h))
	for i := 0; i < n; i++ {
		g.AddCore("")
	}
	for i := h; i < n; i++ {
		hot := CoreID(i % h)
		g.MustAddFlow(CoreID(i), hot, 128)
		g.MustAddFlow(hot, CoreID(i), 32)
	}
	return g, nil
}

// CheckTranspose returns the error Transpose fails with on n cores, or
// nil if it accepts them. Like the other Check functions it builds
// nothing, so a caller can validate a pattern's arguments ahead of
// construction with the generator's own check.
func CheckTranspose(n int) error {
	if k := isqrt(n); k*k != n || n < 4 {
		return fmt.Errorf("traffic: transpose needs a square core count >= 4, got %d", n)
	}
	return nil
}

// CheckBitReversal returns the error BitReversal fails with on n cores,
// or nil if it accepts them.
func CheckBitReversal(n int) error {
	if n < 4 || n&(n-1) != 0 {
		return fmt.Errorf("traffic: bit-reversal needs a power-of-two core count >= 4, got %d", n)
	}
	return nil
}

// CheckHotspot returns the error Hotspot fails with on n cores and h
// hotspots, or nil if it accepts them.
func CheckHotspot(n, h int) error {
	if n < 3 || h < 1 || h >= n {
		return fmt.Errorf("traffic: hotspot needs 1 <= hotspots < cores and cores >= 3, got %d cores, %d hotspots", n, h)
	}
	return nil
}

// isqrt returns the integer square root of n.
func isqrt(n int) int {
	if n < 2 {
		return 0
	}
	r := int(bits.Len(uint(n))+1) / 2
	x := 1 << r
	for {
		y := (x + n/x) / 2
		if y >= x {
			return x
		}
		x = y
	}
}
