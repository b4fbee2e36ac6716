package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// goldenJSON maps workload → op key → report digest for every op of seed 0.
// Because the digests cover simulated statistics too, a change meant only
// to make a layer faster must leave every one of them unchanged.
//
//go:embed testdata/golden.json
var goldenJSON []byte

func goldenDigests(workload string) (map[string]string, error) {
	var all map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	g, ok := all[workload]
	if !ok {
		return nil, fmt.Errorf("no golden digests for workload %s", workload)
	}
	return g, nil
}

// updateGolden runs every op of every workload once at seed 0, holding each
// to all checks except the golden digests, and writes the digests to path.
func updateGolden(ctx context.Context, path string, log io.Writer) error {
	all := map[string]map[string]string{}
	for _, w := range workloads {
		h := &harness{cfg: runConfig{workload: w.name, log: log}, seen: map[string]string{}, rt: newRuntimeReader()}
		inst, err := w.setup(ctx, 0, nil)
		if err != nil {
			return fmt.Errorf("%s set-up: %w", w.name, err)
		}
		p := &phase{}
		for _, op := range inst.ops {
			h.attempt(ctx, inst, op, nil, p)
		}
		inst.close()
		if p.failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", w.name, p.failed, p.ops)
		}
		all[w.name] = h.seen
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
