package bench

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"github.com/nocdr/nocdr/internal/core"
	"github.com/nocdr/nocdr/internal/ordering"
	"github.com/nocdr/nocdr/internal/synth"
	"github.com/nocdr/nocdr/internal/traffic"
	"github.com/nocdr/nocdr/internal/updown"
)

// MethodRow compares the three deadlock-freedom strategies the paper
// discusses on one synthesized design: the removal algorithm (minimal
// VCs, shortest routes), resource ordering (many VCs, shortest routes),
// and up*/down* turn prohibition (zero VCs, inflated routes). The paper
// argues removal dominates; this table quantifies each method's currency.
type MethodRow struct {
	Benchmark string

	// ShortestAvgLen is the unconstrained shortest-path average route
	// length, which removal and ordering preserve.
	ShortestAvgLen float64

	RemovalVCs  int
	OrderingVCs int

	// UpDownAvgLen/MaxLen are the turn-prohibited route statistics; the
	// overhead currency of up*/down* is hops, not VCs.
	UpDownAvgLen float64
	UpDownMaxLen int
	// UpDownOK is false when the topology cannot be routed under
	// up*/down* at all (one-way links).
	UpDownOK bool
}

// RouteInflation is the relative route-length increase up*/down* pays.
func (r MethodRow) RouteInflation() float64 {
	if r.ShortestAvgLen == 0 {
		return 0
	}
	return r.UpDownAvgLen/r.ShortestAvgLen - 1
}

// CompareMethods evaluates all three strategies for every benchmark at
// the given switch count.
func CompareMethods(switchCount int) ([]MethodRow, error) {
	var rows []MethodRow
	for _, g := range traffic.AllBenchmarks() {
		des, err := synth.Synthesize(g, synth.Options{SwitchCount: switchCount})
		if err != nil {
			return nil, err
		}
		rm, err := core.Remove(des.Topology, des.Routes, core.Options{})
		if err != nil {
			return nil, err
		}
		orderingVCs, err := ordering.AddedVCs(des.Topology, des.Routes)
		if err != nil {
			return nil, err
		}
		row := MethodRow{
			Benchmark:      g.Name,
			ShortestAvgLen: des.Routes.AvgLen(),
			RemovalVCs:     rm.AddedVCs,
			OrderingVCs:    orderingVCs,
		}
		ud, err := updown.Apply(des.Topology, g)
		if err == nil {
			row.UpDownOK = true
			row.UpDownAvgLen = ud.Routes.AvgLen()
			row.UpDownMaxLen = ud.Routes.MaxLen()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// WriteMethodsTable renders the three-way method comparison.
func WriteMethodsTable(w io.Writer, rows []MethodRow) error {
	title := "Extension: removal vs resource ordering vs up*/down* turn prohibition (14 switches)"
	fmt.Fprintf(w, "%s\n%s\n", title, strings.Repeat("-", len(title)))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tshortest avg len\tremoval VCs\tordering VCs\tup/down avg len\tup/down inflation")
	for _, r := range rows {
		ud := "unroutable"
		infl := "-"
		if r.UpDownOK {
			ud = fmt.Sprintf("%.2f", r.UpDownAvgLen)
			infl = fmt.Sprintf("+%.0f%%", 100*r.RouteInflation())
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%d\t%d\t%s\t%s\n",
			r.Benchmark, r.ShortestAvgLen, r.RemovalVCs, r.OrderingVCs, ud, infl)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w)
	return err
}
