package topology

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/nocdr/nocdr/internal/nocerr"
)

// ringJSON encodes a ring of len(vcs) switches whose link i carries
// vcs[i] VCs.
func ringJSON(vcs ...int) string {
	var sw, links []string
	for i, n := range vcs {
		sw = append(sw, fmt.Sprintf(`{"id":%d,"name":""}`, i))
		links = append(links, fmt.Sprintf(`{"id":%d,"from":%d,"to":%d,"vcs":%d}`, i, i, (i+1)%len(vcs), n))
	}
	return fmt.Sprintf(`{"name":"ring","switches":[%s],"links":[%s]}`,
		strings.Join(sw, ","), strings.Join(links, ","))
}

// TestDecodeBoundsChannels pins MaxChannels: a topology declaring more
// channels than that is refused before any is provisioned, so a body of
// a few hundred bytes cannot keep the decoder busy for minutes or make
// removal allocate gigabytes.
func TestDecodeBoundsChannels(t *testing.T) {
	for name, vcs := range map[string][]int{
		"2^63-1 VCs on one link":       {math.MaxInt64, 1},
		"2^21 VCs on one link":         {1 << 21, 1},
		"two links of 2^19+1 VCs each": {1<<19 + 1, 1<<19 + 1},
	} {
		done := make(chan error, 1)
		go func() {
			_, err := Read(strings.NewReader(ringJSON(vcs...)))
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, nocerr.ErrInvalidInput) {
				t.Errorf("%s: error %v, want ErrInvalidInput", name, err)
			}
		case <-time.After(100 * time.Millisecond):
			t.Fatalf("%s: decoding did not return within 100 ms", name)
		}
	}
	top, err := Read(strings.NewReader(ringJSON(MaxChannels-1, 1)))
	if err != nil {
		t.Fatalf("exactly MaxChannels channels: %v", err)
	}
	if got := top.TotalVCs(); got != MaxChannels {
		t.Fatalf("decoded %d channels, want %d", got, MaxChannels)
	}
}
