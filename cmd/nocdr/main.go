// Command nocdr is the command-line front end of the deadlock-removal
// library: it checks routed NoC designs for deadlock potential, removes
// deadlocks by adding minimal virtual channels (DATE 2010 algorithm),
// applies the resource-ordering baseline, synthesizes application-
// specific topologies, and simulates wormhole traffic.
//
// Usage:
//
//	nocdr check    -topology t.json -routes r.json [-traffic g.json]
//	nocdr remove   -topology t.json -routes r.json [-out-topology t2.json] [-out-routes r2.json]
//	nocdr ordering -topology t.json -routes r.json [-scheme hop|bfs|id]
//	nocdr synth    -traffic g.json -switches N [-neighbors K] [-out-topology t.json] [-out-routes r.json]
//	nocdr sim      -topology t.json -traffic g.json -routes r.json [-cycles N] [-load F] [-packets P]
//	nocdr dot      -topology t.json [-cdg -routes r.json]
//	nocdr bench    -name D26_media -out g.json
//	nocdr serve    [-addr host:port] [-workers N] [-sweep-parallel N] [-join URL] [-token T] [-cache-dir DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	nocdr "github.com/nocdr/nocdr"
)

// sess is the CLI's pipeline session; commands needing policy overrides
// derive their own.
var sess = nocdr.NewSession()

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Long-running commands (remove, synth, sim) stop cooperatively on
	// Ctrl-C / SIGTERM through this context.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "check":
		err = runCheck(os.Args[2:])
	case "remove":
		err = runRemove(ctx, os.Args[2:])
	case "ordering":
		err = runOrdering(os.Args[2:])
	case "synth":
		err = runSynth(ctx, os.Args[2:])
	case "sim":
		err = runSim(ctx, os.Args[2:])
	case "dot":
		err = runDot(os.Args[2:])
	case "bench":
		err = runBench(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "nocdr: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		// Errors from the library already carry the prefix.
		fmt.Fprintln(os.Stderr, "nocdr:", strings.TrimPrefix(err.Error(), "nocdr: "))
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `nocdr — deadlock removal for wormhole NoCs (DATE 2010)

commands:
  check     report whether a routed design is deadlock-free (CDG acyclicity)
  remove    remove deadlocks by adding minimal VCs and rerouting
  ordering  apply the resource-ordering baseline
  synth     synthesize an application-specific topology for a traffic file
  sim       simulate wormhole traffic on a routed design
  dot       render a topology (or its CDG) as Graphviz DOT
  bench     write one of the built-in SoC benchmarks as a traffic JSON file
  serve     run the HTTP/JSON job service (/v1/remove, /v1/sweep, /v1/simulate)

run "nocdr <command> -h" for the flags of each command.`)
}

// loadDesign reads the topology and routes that every analysis command
// needs; traffic is optional and only used for validation when given.
func loadDesign(topoPath, routesPath, trafficPath string) (*nocdr.Topology, *nocdr.RouteTable, *nocdr.TrafficGraph, error) {
	if topoPath == "" || routesPath == "" {
		return nil, nil, nil, fmt.Errorf("-topology and -routes are required")
	}
	top, err := nocdr.LoadTopology(topoPath)
	if err != nil {
		return nil, nil, nil, err
	}
	tab, err := nocdr.LoadRoutes(routesPath)
	if err != nil {
		return nil, nil, nil, err
	}
	var g *nocdr.TrafficGraph
	if trafficPath != "" {
		if g, err = nocdr.LoadTraffic(trafficPath); err != nil {
			return nil, nil, nil, err
		}
		if err := tab.Validate(top, g); err != nil {
			return nil, nil, nil, fmt.Errorf("routes inconsistent with topology/traffic: %w", err)
		}
	}
	return top, tab, g, nil
}

func runCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	topoPath := fs.String("topology", "", "topology JSON file")
	routesPath := fs.String("routes", "", "routes JSON file")
	trafficPath := fs.String("traffic", "", "traffic JSON file (optional, enables route validation)")
	fs.Parse(args)
	top, tab, _, err := loadDesign(*topoPath, *routesPath, *trafficPath)
	if err != nil {
		return err
	}
	g, err := sess.BuildCDG(top, tab)
	if err != nil {
		return err
	}
	fmt.Printf("topology: %d switches, %d links, %d channels\n",
		top.NumSwitches(), top.NumLinks(), top.TotalVCs())
	fmt.Printf("CDG: %d vertices, %d dependencies\n", g.NumChannels(), g.NumDependencies())
	if g.Acyclic() {
		fmt.Println("deadlock-free: YES (CDG is acyclic)")
		return nil
	}
	cycle := g.SmallestCycle()
	fmt.Println("deadlock-free: NO")
	fmt.Print("smallest cycle:")
	for _, ch := range cycle {
		fmt.Printf(" %s", top.ChannelName(ch))
	}
	fmt.Println()
	return nil
}

func runRemove(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("remove", flag.ExitOnError)
	topoPath := fs.String("topology", "", "topology JSON file")
	routesPath := fs.String("routes", "", "routes JSON file")
	trafficPath := fs.String("traffic", "", "traffic JSON file (optional)")
	outTopo := fs.String("out-topology", "", "write modified topology JSON here")
	outRoutes := fs.String("out-routes", "", "write modified routes JSON here")
	verbose := fs.Bool("v", false, "log every cycle break")
	vcLimit := fs.Int("vc-limit", 0, "fail (ErrVCLimit) if removal would add more than this many VCs; 0 = unlimited")
	fs.Parse(args)
	top, tab, g, err := loadDesign(*topoPath, *routesPath, *trafficPath)
	if err != nil {
		return err
	}
	res, err := nocdr.NewSession(nocdr.WithVCLimit(*vcLimit)).RemoveDeadlocks(ctx, top, tab)
	if err != nil {
		return err
	}
	if err := res.Verify(); err != nil {
		return fmt.Errorf("internal verification failed: %w", err)
	}
	if g != nil {
		if err := res.Routes.Validate(res.Topology, g); err != nil {
			return fmt.Errorf("modified routes invalid: %w", err)
		}
	}
	if res.InitialAcyclic {
		fmt.Println("input design is already deadlock-free; nothing to do")
	} else {
		fmt.Printf("removed %d cycle(s), added %d VC(s)\n", res.Iterations, res.AddedVCs)
		if *verbose {
			for i, b := range res.Breaks {
				fmt.Printf("  break %d: %s at edge %d, cost %d, flows %v, new channels:",
					i+1, b.Direction, b.EdgePos, b.Cost, b.Reroutes)
				for _, ch := range b.NewChannels {
					fmt.Printf(" %s", res.Topology.ChannelName(ch))
				}
				fmt.Println()
			}
		}
	}
	if *outTopo != "" {
		if err := nocdr.SaveJSON(*outTopo, res.Topology); err != nil {
			return err
		}
	}
	if *outRoutes != "" {
		if err := nocdr.SaveJSON(*outRoutes, res.Routes); err != nil {
			return err
		}
	}
	return nil
}

func runOrdering(args []string) error {
	fs := flag.NewFlagSet("ordering", flag.ExitOnError)
	topoPath := fs.String("topology", "", "topology JSON file")
	routesPath := fs.String("routes", "", "routes JSON file")
	trafficPath := fs.String("traffic", "", "traffic JSON file (optional)")
	schemeName := fs.String("scheme", "hop", "class scheme: hop, bfs, or id")
	outTopo := fs.String("out-topology", "", "write modified topology JSON here")
	outRoutes := fs.String("out-routes", "", "write modified routes JSON here")
	fs.Parse(args)
	top, tab, _, err := loadDesign(*topoPath, *routesPath, *trafficPath)
	if err != nil {
		return err
	}
	var scheme nocdr.OrderingScheme
	switch *schemeName {
	case "hop":
		scheme = nocdr.HopIndex
	case "bfs":
		scheme = nocdr.GreedyBFS
	case "id":
		scheme = nocdr.GreedyByID
	default:
		return fmt.Errorf("unknown scheme %q (hop, bfs, id)", *schemeName)
	}
	res, err := sess.ApplyResourceOrdering(top, tab, scheme)
	if err != nil {
		return err
	}
	fmt.Printf("resource ordering (%s): %d layers, %d classes, added %d VC(s)\n",
		scheme, res.Layers, res.Classes, res.AddedVCs)
	if *outTopo != "" {
		if err := nocdr.SaveJSON(*outTopo, res.Topology); err != nil {
			return err
		}
	}
	if *outRoutes != "" {
		if err := nocdr.SaveJSON(*outRoutes, res.Routes); err != nil {
			return err
		}
	}
	return nil
}

func runSynth(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("synth", flag.ExitOnError)
	trafficPath := fs.String("traffic", "", "traffic JSON file")
	switches := fs.Int("switches", 0, "number of switches")
	neighbors := fs.Int("neighbors", 0, "max neighbor switches per switch (default 4)")
	outTopo := fs.String("out-topology", "", "write topology JSON here")
	outRoutes := fs.String("out-routes", "", "write routes JSON here")
	fs.Parse(args)
	if *trafficPath == "" {
		return fmt.Errorf("-traffic is required")
	}
	g, err := nocdr.LoadTraffic(*trafficPath)
	if err != nil {
		return err
	}
	design, err := sess.Synthesize(ctx, g, nocdr.SynthOptions{
		SwitchCount:  *switches,
		MaxNeighbors: *neighbors,
	})
	if err != nil {
		return err
	}
	free, err := sess.DeadlockFree(design.Topology, design.Routes)
	if err != nil {
		return err
	}
	fmt.Printf("synthesized %q: %d switches, %d links, max route %d hops, deadlock-free: %v\n",
		design.Topology.Name, design.Topology.NumSwitches(), design.Topology.NumLinks(),
		design.Routes.MaxLen(), free)
	if *outTopo != "" {
		if err := nocdr.SaveJSON(*outTopo, design.Topology); err != nil {
			return err
		}
	}
	if *outRoutes != "" {
		if err := nocdr.SaveJSON(*outRoutes, design.Routes); err != nil {
			return err
		}
	}
	return nil
}

func runSim(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sim", flag.ExitOnError)
	topoPath := fs.String("topology", "", "topology JSON file")
	routesPath := fs.String("routes", "", "routes JSON file")
	trafficPath := fs.String("traffic", "", "traffic JSON file")
	cycles := fs.Int64("cycles", 100000, "simulation horizon in cycles")
	load := fs.Float64("load", 0.5, "injection load factor in (0,1]")
	packets := fs.Int("packets", 0, "drain mode: packets per flow (0 = open-loop)")
	seed := fs.Int64("seed", 1, "injection RNG seed")
	fs.Parse(args)
	if *trafficPath == "" {
		return fmt.Errorf("-traffic is required for simulation")
	}
	top, tab, g, err := loadDesign(*topoPath, *routesPath, *trafficPath)
	if err != nil {
		return err
	}
	st, err := sess.Simulate(ctx, top, g, tab, nocdr.SimConfig{
		MaxCycles:      *cycles,
		LoadFactor:     *load,
		PacketsPerFlow: *packets,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("cycles: %d\n", st.Cycles)
	fmt.Printf("packets: %d injected, %d delivered, %d local\n",
		st.InjectedPackets, st.DeliveredPackets, st.LocalPackets)
	fmt.Printf("flits: %d injected, %d delivered (%.3f flits/cycle)\n",
		st.InjectedFlits, st.DeliveredFlits, st.ThroughputFlitsPerCycle())
	fmt.Printf("latency: avg %.1f, max %d cycles\n", st.AvgLatency(), st.LatencyMax)
	if st.Deadlocked {
		fmt.Printf("DEADLOCK at cycle %d involving packets %v\n", st.DeadlockCycle, st.DeadlockPackets)
	} else if st.Drained {
		fmt.Println("workload drained completely; no deadlock")
	} else {
		fmt.Println("no deadlock within horizon")
	}
	return nil
}

func runDot(args []string) error {
	fs := flag.NewFlagSet("dot", flag.ExitOnError)
	topoPath := fs.String("topology", "", "topology JSON file")
	routesPath := fs.String("routes", "", "routes JSON file (required with -cdg)")
	asCDG := fs.Bool("cdg", false, "render the channel dependency graph instead of the topology")
	fs.Parse(args)
	if *topoPath == "" {
		return fmt.Errorf("-topology is required")
	}
	top, err := nocdr.LoadTopology(*topoPath)
	if err != nil {
		return err
	}
	if !*asCDG {
		return top.WriteDOT(os.Stdout)
	}
	if *routesPath == "" {
		return fmt.Errorf("-cdg requires -routes")
	}
	tab, err := nocdr.LoadRoutes(*routesPath)
	if err != nil {
		return err
	}
	g, err := sess.BuildCDG(top, tab)
	if err != nil {
		return err
	}
	return g.WriteDOT(os.Stdout)
}

func runBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	name := fs.String("name", "", "benchmark name (see list below)")
	out := fs.String("out", "", "write traffic JSON here (default stdout)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("-name is required; available: %v", nocdr.BenchmarkNames())
	}
	g, err := nocdr.Benchmark(*name)
	if err != nil {
		return err
	}
	if *out == "" {
		return g.Write(os.Stdout)
	}
	return nocdr.SaveJSON(*out, g)
}
