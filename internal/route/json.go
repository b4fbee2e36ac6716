package route

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/nocdr/nocdr/internal/nocerr"
	"github.com/nocdr/nocdr/internal/topology"
)

type jsonTable struct {
	Routes []jsonRoute `json:"routes"`
}

type jsonRoute struct {
	Flow     int           `json:"flow"`
	Channels []jsonChannel `json:"channels"`
}

type jsonChannel struct {
	Link int `json:"link"`
	VC   int `json:"vc"`
}

// MarshalJSON encodes the set routes in a stable schema. Unset slots are
// omitted; empty (local) routes are encoded with an empty channel list.
func (t *Table) MarshalJSON() ([]byte, error) {
	jt := jsonTable{}
	for _, r := range t.Routes() {
		jr := jsonRoute{Flow: r.FlowID, Channels: []jsonChannel{}}
		for _, ch := range r.Channels {
			jr.Channels = append(jr.Channels, jsonChannel{Link: int(ch.Link), VC: ch.VC})
		}
		jt.Routes = append(jt.Routes, jr)
	}
	return json.MarshalIndent(jt, "", "  ")
}

// UnmarshalJSON decodes the schema produced by MarshalJSON.
func (t *Table) UnmarshalJSON(data []byte) error {
	var jt jsonTable
	if err := json.Unmarshal(data, &jt); err != nil {
		return fmt.Errorf("route: %w: %w", nocerr.ErrInvalidInput, err)
	}
	nt := NewTable(0)
	for _, jr := range jt.Routes {
		if jr.Flow < 0 {
			return fmt.Errorf("route: negative flow ID %d: %w", jr.Flow, nocerr.ErrInvalidInput)
		}
		if nt.Route(jr.Flow) != nil {
			return fmt.Errorf("route: duplicate route for flow %d: %w", jr.Flow, nocerr.ErrInvalidInput)
		}
		channels := make([]topology.Channel, 0, len(jr.Channels))
		for _, jc := range jr.Channels {
			if jc.Link < 0 || jc.VC < 0 {
				return fmt.Errorf("route: flow %d has negative link/vc: %w", jr.Flow, nocerr.ErrInvalidInput)
			}
			channels = append(channels, topology.Chan(topology.LinkID(jc.Link), jc.VC))
		}
		nt.Set(jr.Flow, channels)
	}
	*t = *nt
	return nil
}

// Write serializes the table as JSON to w.
func (t *Table) Write(w io.Writer) error {
	data, err := t.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// Read parses a route table from JSON.
func Read(r io.Reader) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("route: %w", err)
	}
	t := NewTable(0)
	if err := t.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return t, nil
}

type jsonSet struct {
	Flows []jsonSetFlow `json:"flows"`
}

type jsonSetFlow struct {
	Flow  int             `json:"flow"`
	Paths [][]jsonChannel `json:"paths"`
}

// MarshalJSON encodes the set with one entry per flow slot, candidate
// paths in order. Every slot is emitted — including empty ones — so the
// flow count round-trips exactly.
func (s *RouteSet) MarshalJSON() ([]byte, error) {
	js := jsonSet{Flows: []jsonSetFlow{}}
	for f, ps := range s.paths {
		jf := jsonSetFlow{Flow: f, Paths: [][]jsonChannel{}}
		for _, p := range ps {
			jp := []jsonChannel{}
			for _, ch := range p {
				jp = append(jp, jsonChannel{Link: int(ch.Link), VC: ch.VC})
			}
			jf.Paths = append(jf.Paths, jp)
		}
		js.Flows = append(js.Flows, jf)
	}
	return json.MarshalIndent(js, "", "  ")
}

// UnmarshalJSON decodes the schema produced by MarshalJSON. Duplicate
// candidate paths are preserved as written (AppendPath semantics), so a
// set survives the round trip path-for-path.
func (s *RouteSet) UnmarshalJSON(data []byte) error {
	var js jsonSet
	if err := json.Unmarshal(data, &js); err != nil {
		return fmt.Errorf("route: %w: %w", nocerr.ErrInvalidInput, err)
	}
	ns := NewRouteSet(0)
	seen := make(map[int]bool, len(js.Flows))
	for _, jf := range js.Flows {
		if jf.Flow < 0 {
			return fmt.Errorf("route: negative flow ID %d: %w", jf.Flow, nocerr.ErrInvalidInput)
		}
		if seen[jf.Flow] {
			return fmt.Errorf("route: duplicate flow %d in route set: %w", jf.Flow, nocerr.ErrInvalidInput)
		}
		seen[jf.Flow] = true
		for len(ns.paths) <= jf.Flow {
			ns.paths = append(ns.paths, nil)
		}
		for _, jp := range jf.Paths {
			channels := make([]topology.Channel, 0, len(jp))
			for _, jc := range jp {
				if jc.Link < 0 || jc.VC < 0 {
					return fmt.Errorf("route: flow %d has negative link/vc: %w", jf.Flow, nocerr.ErrInvalidInput)
				}
				channels = append(channels, topology.Chan(topology.LinkID(jc.Link), jc.VC))
			}
			ns.AppendPath(jf.Flow, channels)
		}
	}
	*s = *ns
	return nil
}

// Write serializes the set as JSON to w.
func (s *RouteSet) Write(w io.Writer) error {
	data, err := s.MarshalJSON()
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}
