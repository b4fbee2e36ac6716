package runner

import "sort"

// LoadPoint is one cell's post-removal measurement at one injection
// load: the raw material of the per-design saturation curves.
type LoadPoint struct {
	Load       float64 `json:"load"`
	Deadlock   bool    `json:"deadlock,omitempty"`
	Delivered  int64   `json:"delivered"`
	AvgLatency float64 `json:"avg_latency"`
	P50        int64   `json:"p50_latency"`
	P95        int64   `json:"p95_latency"`
	P99        int64   `json:"p99_latency"`
	Throughput float64 `json:"throughput_flits_per_cycle"`
}

// CurvePoint is one load of a design's aggregated curve: means over the
// contributing seeds for latency and throughput, worst case over seeds
// for the tail percentiles, and the count of lanes that deadlocked.
type CurvePoint struct {
	Load float64 `json:"load"`
	// Seeds is how many cells contributed to this point.
	Seeds int `json:"seeds"`
	// Deadlocks counts contributing cells whose measurement run
	// deadlocked at this load.
	Deadlocks  int     `json:"deadlocks,omitempty"`
	AvgLatency float64 `json:"avg_latency"`
	// P95/P99 are the worst tail over the contributing seeds.
	P95        int64   `json:"p95_latency"`
	P99        int64   `json:"p99_latency"`
	Throughput float64 `json:"throughput_flits_per_cycle"`
}

// DesignCurve is one design's load-sweep curve: its identifying axes, the
// aggregated points ascending by load, and the estimated saturation load.
type DesignCurve struct {
	Benchmark   string       `json:"benchmark"`
	SwitchCount int          `json:"switch_count"`
	Routing     string       `json:"routing,omitempty"`
	Faults      int          `json:"faults,omitempty"`
	Policy      string       `json:"policy"`
	Points      []CurvePoint `json:"points"`
	// SaturationLoad is the estimated knee of the curve (see
	// ExtractSaturation); 0 means the design never saturates within the
	// swept axis.
	SaturationLoad float64 `json:"saturation_load,omitempty"`
}

// BuildCurves aggregates the report's per-cell LoadSweep points into one
// curve per design, in first-appearance order over the results. It is a
// pure function of the result slots, so serial, parallel and
// shard-merged reports produce identical curves. Returns nil when no
// cell carries load-sweep data.
func BuildCurves(rep *Report) []DesignCurve {
	type acc struct {
		curve  DesignCurve
		byLoad map[float64]*CurvePoint
	}
	// A curve is a designKey, so the seeds column aggregates into one
	// curve per design.
	byKey := map[Job]*acc{}
	var order []*acc
	for i := range rep.Results {
		res := &rep.Results[i]
		if res.Sim == nil || len(res.Sim.LoadSweep) == 0 {
			continue
		}
		k := designKey(res.Job)
		a, ok := byKey[k]
		if !ok {
			a = &acc{
				curve: DesignCurve{
					Benchmark:   res.Benchmark,
					SwitchCount: res.SwitchCount,
					Routing:     res.Routing,
					Faults:      res.Faults,
					Policy:      res.Policy,
				},
				byLoad: map[float64]*CurvePoint{},
			}
			byKey[k] = a
			order = append(order, a)
		}
		for _, lp := range res.Sim.LoadSweep {
			p, ok := a.byLoad[lp.Load]
			if !ok {
				p = &CurvePoint{Load: lp.Load}
				a.byLoad[lp.Load] = p
			}
			p.Seeds++
			if lp.Deadlock {
				p.Deadlocks++
			}
			// Accumulate sums; the finalize pass divides.
			p.AvgLatency += lp.AvgLatency
			p.Throughput += lp.Throughput
			p.P95 = max(p.P95, lp.P95)
			p.P99 = max(p.P99, lp.P99)
		}
	}
	if len(order) == 0 {
		return nil
	}
	curves := make([]DesignCurve, 0, len(order))
	for _, a := range order {
		loads := make([]float64, 0, len(a.byLoad))
		for l := range a.byLoad {
			loads = append(loads, l)
		}
		sort.Float64s(loads)
		for _, l := range loads {
			p := *a.byLoad[l]
			p.AvgLatency /= float64(p.Seeds)
			p.Throughput /= float64(p.Seeds)
			a.curve.Points = append(a.curve.Points, p)
		}
		a.curve.SaturationLoad = ExtractSaturation(a.curve.Points)
		curves = append(curves, a.curve)
	}
	return curves
}

// Saturation-knee thresholds: a load saturates the design when its mean
// latency exceeds latencyKneeFactor × the curve's lowest-load latency, or
// when the marginal throughput gained per unit load drops below
// slopeKneeFraction of the curve's initial throughput-per-load slope (the
// accepted-traffic curve going flat), or — trivially — when any lane
// deadlocks at that load.
const (
	latencyKneeFactor = 3.0
	slopeKneeFraction = 0.05
)

// ExtractSaturation estimates the saturation load of an aggregated curve:
// the smallest swept load at which the design is saturated under any of
// the three knee criteria. The points must be ascending by load
// (BuildCurves guarantees it). Returns 0 when the design never saturates
// within the axis — including on empty or single-point curves, which
// carry no slope information.
func ExtractSaturation(points []CurvePoint) float64 {
	if len(points) == 0 {
		return 0
	}
	baseLatency := points[0].AvgLatency
	baseSlope := 0.0
	if points[0].Load > 0 {
		baseSlope = points[0].Throughput / points[0].Load
	}
	for i, p := range points {
		if p.Deadlocks > 0 {
			return p.Load
		}
		if i > 0 && baseLatency > 0 && p.AvgLatency > latencyKneeFactor*baseLatency {
			return p.Load
		}
		if i > 0 && baseSlope > 0 {
			dLoad := p.Load - points[i-1].Load
			if dLoad > 0 {
				slope := (p.Throughput - points[i-1].Throughput) / dLoad
				if slope < slopeKneeFraction*baseSlope {
					return p.Load
				}
			}
		}
	}
	return 0
}
