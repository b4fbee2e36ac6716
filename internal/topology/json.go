package topology

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/nocdr/nocdr/internal/nocerr"
)

// jsonTopology is the on-disk schema, kept separate from the in-memory
// representation so the indexes never leak into files.
type jsonTopology struct {
	Name     string     `json:"name"`
	Switches []jsonSw   `json:"switches"`
	Links    []jsonLink `json:"links"`
	Cores    []jsonCore `json:"cores,omitempty"`
	// Faults lists masked (failed) link IDs, ascending. Absent when the
	// topology is fault-free, so pre-fault files round-trip unchanged.
	Faults []int `json:"faults,omitempty"`
}

type jsonSw struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
}

type jsonLink struct {
	ID   int `json:"id"`
	From int `json:"from"`
	To   int `json:"to"`
	VCs  int `json:"vcs"`
}

type jsonCore struct {
	Core   int `json:"core"`
	Switch int `json:"switch"`
}

// MarshalJSON encodes the topology in a stable, human-editable schema.
func (t *Topology) MarshalJSON() ([]byte, error) {
	jt := jsonTopology{Name: t.Name}
	for _, s := range t.switches {
		jt.Switches = append(jt.Switches, jsonSw{ID: int(s.ID), Name: s.Name})
	}
	for _, l := range t.links {
		jt.Links = append(jt.Links, jsonLink{ID: int(l.ID), From: int(l.From), To: int(l.To), VCs: l.VCs})
	}
	cores := t.Cores()
	for _, c := range cores {
		sw := t.coreAttach[c]
		jt.Cores = append(jt.Cores, jsonCore{Core: c, Switch: int(sw)})
	}
	for _, id := range t.FaultedLinks() {
		jt.Faults = append(jt.Faults, int(id))
	}
	return json.MarshalIndent(jt, "", "  ")
}

// MaxChannels bounds the channels, VCs summed over links, a decoded
// topology may declare. It is about 30 times the largest design a sweep
// spec can name (torus:64x64 with two VCs per link has 32,768 channels).
const MaxChannels = 1 << 20

// UnmarshalJSON decodes the schema produced by MarshalJSON. Switch and
// link IDs must be dense and in order (0..n-1); this keeps files
// unambiguous and round-trips exact. A topology with more than
// MaxChannels channels is rejected.
func (t *Topology) UnmarshalJSON(data []byte) error {
	var jt jsonTopology
	if err := json.Unmarshal(data, &jt); err != nil {
		return fmt.Errorf("topology: %w: %w", nocerr.ErrInvalidInput, err)
	}
	nt := New(jt.Name)
	sort.Slice(jt.Switches, func(i, j int) bool { return jt.Switches[i].ID < jt.Switches[j].ID })
	for i, s := range jt.Switches {
		if s.ID != i {
			return fmt.Errorf("topology: switch IDs must be dense, got %d at position %d: %w", s.ID, i, nocerr.ErrInvalidInput)
		}
		nt.AddSwitch(s.Name)
	}
	// AddVC below provisions one VC per call, so bound the total first:
	// a few bytes of JSON must not stand for billions of channels.
	channels := 0
	for _, l := range jt.Links {
		if l.VCs > MaxChannels-channels {
			return fmt.Errorf("topology: more than %d channels: %w", MaxChannels, nocerr.ErrInvalidInput)
		}
		channels += max(l.VCs, 0)
	}
	sort.Slice(jt.Links, func(i, j int) bool { return jt.Links[i].ID < jt.Links[j].ID })
	for i, l := range jt.Links {
		if l.ID != i {
			return fmt.Errorf("topology: link IDs must be dense, got %d at position %d: %w", l.ID, i, nocerr.ErrInvalidInput)
		}
		id, err := nt.AddLink(SwitchID(l.From), SwitchID(l.To))
		if err != nil {
			return err
		}
		if l.VCs < 1 {
			return fmt.Errorf("topology: link %d has %d VCs: %w", l.ID, l.VCs, nocerr.ErrInvalidInput)
		}
		for nt.links[id].VCs < l.VCs {
			if _, err := nt.AddVC(id); err != nil {
				return err
			}
		}
	}
	for _, c := range jt.Cores {
		if err := nt.AttachCore(c.Core, SwitchID(c.Switch)); err != nil {
			return err
		}
	}
	for _, id := range jt.Faults {
		if err := nt.Fault(LinkID(id)); err != nil {
			return fmt.Errorf("topology: %w: %w", nocerr.ErrInvalidInput, err)
		}
	}
	*t = *nt
	return nil
}

// Write serializes the topology as JSON to w.
func (t *Topology) Write(w io.Writer) error {
	data, err := t.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// Read parses a topology from JSON.
func Read(r io.Reader) (*Topology, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("topology: %w", err)
	}
	t := New("")
	if err := t.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
