package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// untracedRounds is how many untraced rounds a result set holds; a last,
// traced round adds the per-layer metrics.
const untracedRounds = 5

// setupFloor is the change in setup_s, in seconds, below which compare
// never calls it worse: set-up times that small move by more than their
// bound from scheduling alone.
const setupFloor = 0.05

// ledger is the file format of result sets: a file written by -out holds
// one set, the committed baseline of a change holds two.
type ledger struct {
	Sets []resultSet `json:"sets"`
}

type resultSet struct {
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Rounds    int                     `json:"rounds"`
	Host      hostInfo                `json:"host"`
	Workloads map[string]*workloadSet `json:"workloads"`
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

type workloadSet struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	// PerLayer holds the traced round's values.
	PerLayer map[string]float64 `json:"per_layer"`
}

// summary is one metric over the untraced rounds.
type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func summarize(unit string, values []float64) summary {
	q1, q3 := quartiles(values)
	return summary{Unit: unit, Values: values, Median: median(values), Q1: q1, Q3: q3}
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) computes them (its default,
// exclusive method).
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	ld := len(d)
	if ld < 2 {
		if ld == 1 {
			return d[0], d[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func hostInformation() hostInfo {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "-dirty"
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	return hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		Commit: commit, OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
}

// orchestrate runs untracedRounds untraced rounds and one traced round of
// every workload, each (round, workload) pair in a fresh child process and
// one process at a time, and writes the result set to out. The traced
// round's spans go to out.<workload>.spans.jsonl.
func orchestrate(ctx context.Context, seed int64, seconds float64, out string, stdout, stderr io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Seed: seed, Seconds: seconds, Rounds: untracedRounds, Host: hostInformation(), Workloads: map[string]*workloadSet{}}
	values := map[string]map[string][]float64{}
	for _, w := range workloads {
		set.Workloads[w.name] = &workloadSet{EndToEnd: map[string]summary{}, PerLayer: map[string]float64{}}
		values[w.name] = map[string][]float64{}
	}
	for round := 0; round <= untracedRounds; round++ {
		traced := round == untracedRounds
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0"}
			if traced {
				args[len(args)-1] = "1"
				args = append(args, "-spans", out+"."+w.name+".spans.jsonl")
			}
			fmt.Fprintf(stderr, "round %d/%d: %s\n", round+1, untracedRounds+1, w.name)
			res, err := runChild(ctx, exe, args, stderr)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", w.name, round+1, err)
			}
			ws := set.Workloads[w.name]
			ws.Attempted += res.Attempted
			ws.Failed += res.Failed
			for name, v := range res.Metrics {
				if traced {
					ws.PerLayer[name] = v.Value
				} else {
					values[w.name][name] = append(values[w.name][name], v.Value)
				}
			}
		}
	}
	for _, w := range workloads {
		ws := set.Workloads[w.name]
		for _, d := range endToEnd {
			ws.EndToEnd[d.Name] = summarize(d.Unit, values[w.name][d.Name])
		}
	}
	printSet(stdout, set)
	data, err := json.MarshalIndent(ledger{Sets: []resultSet{set}}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(data, '\n'), 0o644)
}

// childResult is the last line a single-workload run prints.
type childResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runChild(ctx context.Context, exe string, args []string, stderr io.Writer) (*childResult, error) {
	var stdout bytes.Buffer
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = &stdout
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(&stdout)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res childResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("reading result line %q: %w", last, err)
	}
	return &res, nil
}

func printSet(w io.Writer, set resultSet) {
	fmt.Fprintf(w, "seed %d, %d rounds of %gs; nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		set.Seed, set.Rounds, set.Seconds, set.Host.NProc, set.Host.GOMAXPROCS, set.Host.Go, set.Host.Commit)
	for _, wl := range workloads {
		ws := set.Workloads[wl.name]
		fmt.Fprintf(w, "%s: %d ops, %d failed\n", wl.name, ws.Attempted, ws.Failed)
		for _, d := range endToEnd {
			s := ws.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-28s %12.4f %-9s [%.4f, %.4f]\n", d.Name, s.Median, d.Unit, s.Q1, s.Q3)
		}
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-34s %12.4f %s\n", d.Name, ws.PerLayer[d.Name], d.Unit)
		}
	}
}

// runCompare compares the first (base) and second (change) result set the
// files hold, one row per workload and end-to-end metric. It reports
// whether any metric got worse by more than its bound.
func runCompare(paths []string, w io.Writer) (bool, error) {
	var sets []resultSet
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return false, err
		}
		var l ledger
		if err := json.Unmarshal(data, &l); err != nil {
			return false, fmt.Errorf("%s: %w", p, err)
		}
		sets = append(sets, l.Sets...)
	}
	if len(sets) != 2 {
		return false, fmt.Errorf("compare needs exactly two result sets, the files hold %d", len(sets))
	}
	base, change := sets[0], sets[1]
	fmt.Fprintf(w, "%-14s %-18s %28s %28s %6s  %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "bound", "verdict")
	worse := false
	for _, wl := range workloads {
		b, c := base.Workloads[wl.name], change.Workloads[wl.name]
		if b == nil || c == nil {
			return false, fmt.Errorf("workload %s missing from a result set", wl.name)
		}
		for _, d := range endToEnd {
			bs, cs := b.EndToEnd[d.Name], c.EndToEnd[d.Name]
			v := verdict(d, bs, cs)
			if v == "worse" {
				worse = true
			}
			fmt.Fprintf(w, "%-14s %-18s %28s %28s %5.0f%%  %s\n", wl.name, d.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", bs.Median, bs.Q1, bs.Q3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", cs.Median, cs.Q1, cs.Q3),
				d.Bound*100, v)
		}
		fv := "within bound"
		if c.Failed > b.Failed {
			fv, worse = "worse", true
		}
		fmt.Fprintf(w, "%-14s %-18s %28d %28d %6s  %s\n", wl.name, "failed_ops", b.Failed, c.Failed, "0", fv)
	}
	return worse, nil
}

// verdict judges one metric: worse when the change's median is worse than
// the base's by more than the bound; unresolved when either side's
// quartile spread is wider than the bound, unless every change value beats
// every base value.
func verdict(d metricDef, b, c summary) string {
	if b.Median == 0 {
		return "unresolved"
	}
	sign := 1.0
	if d.Better == "higher" {
		sign = -1
	}
	worsening := sign * (c.Median - b.Median) / math.Abs(b.Median)
	spread := math.Max(math.Abs(b.Q3-b.Q1)/math.Abs(b.Median), math.Abs(c.Q3-c.Q1)/math.Abs(c.Median))
	switch {
	case d.Name == "setup_s" && math.Abs(c.Median-b.Median) < setupFloor:
		return "within bound"
	case spread > d.Bound && !allBetter(sign, b.Values, c.Values):
		return "unresolved"
	case worsening > d.Bound:
		return "worse"
	}
	return "within bound"
}

// allBetter reports whether every change value beats every base value.
func allBetter(sign float64, base, change []float64) bool {
	if len(base) == 0 || len(change) == 0 {
		return false
	}
	for _, c := range change {
		for _, b := range base {
			if sign*(c-b) >= 0 {
				return false
			}
		}
	}
	return true
}
