package runner

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzShardMerge fuzzes the shard assignment and the placement of shard
// reports into grid slots (which replaced MergeShards): ANY partition of
// a grid's cells into any number of shards — not just the hash
// partition — whose reports arrive in any order and are serialized over
// the wire must assemble to bytes identical to the direct report. This
// is the invariant the distributed backend's correctness rests on; the
// nightly deep-verify fuzz matrix runs it for minutes at a stretch.
func FuzzShardMerge(f *testing.F) {
	f.Add(uint8(3), int64(42), []byte{0, 1, 2, 250})
	f.Add(uint8(1), int64(0), []byte{})
	f.Add(uint8(16), int64(-9), []byte{7})
	f.Fuzz(func(t *testing.T, nshards uint8, seed int64, partition []byte) {
		grid := Grid{
			Benchmarks:   []string{"mesh:3", "rand:12x2", "D26_media"},
			SwitchCounts: []int{6, 9},
			Routings:     []string{"west-first", "odd-even"},
			Policies:     []string{"smallest", "first"},
			Seeds:        []int64{0, 1},
			Faults:       1,
		}
		n := int(nshards%8) + 1
		norm := grid.normalized()
		jobs := norm.Jobs()

		// Fabricated deterministic results: placement is pure
		// bookkeeping, so the fuzz budget goes into partitions, not
		// removal runs.
		results := make([]Result, len(jobs))
		for i, j := range jobs {
			r := Result{Job: j, Cores: 3 + i, RemovalVCs: i % 5, OrderingVCs: i % 7, Breaks: i % 3}
			switch i % 4 {
			case 1:
				r.Skipped = true
			case 2:
				r.Error = "synthetic failure"
			case 3:
				r.Sim = &SimResult{
					PreRan:         true,
					PreDeadlock:    i%2 == 1,
					PostDelivered:  int64(i) * 11,
					PostAvgLatency: float64(i) * 1.37,
					PostP95:        int64(i) % 97,
					PostThroughput: float64(i) / 3.0,
				}
			}
			results[i] = r
		}
		want := &Report{Grid: norm, Results: results}

		// Partition by the fuzz bytes; the arrival order is drawn from
		// the fuzz seed. Every shard report travels as JSON — the
		// coordinator places decoded wire documents, so floats and
		// omitempty fields must survive serialization exactly.
		cells, raw := splitReport(t, want, n, func(i int) int {
			if len(partition) == 0 {
				return 0
			}
			return int(partition[i%len(partition)]) % n
		})
		order := rand.New(rand.NewSource(seed)).Perm(n)
		placed, err := assembleShards(grid, cells, raw, order)
		if err != nil {
			t.Fatal(err)
		}
		if w, got := reportJSON(t, want), reportJSON(t, placed); !bytes.Equal(w, got) {
			t.Fatalf("placement round trip diverged (n=%d):\nwant:\n%s\ngot:\n%s", n, w, got)
		}

		// The assignment itself: bounded and stable for this shard count.
		for _, j := range jobs {
			s := ShardOf(j, n)
			if s < 0 || s >= n || s != ShardOf(j, n) {
				t.Fatalf("ShardOf(%q, %d) unstable or out of range: %d", j.Key(), n, s)
			}
		}
	})
}
