package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"mcastsim/internal/event"
)

// jsonlRecord is one line of the JSONL stream: either a bundle header
// (Meta true, topology fields set) or one snapshot belonging to the most
// recent header. Keeping snapshots on their own lines keeps the format
// streamable and diff-friendly for long runs.
type jsonlRecord struct {
	Cell string `json:"cell"`
	Meta bool   `json:"meta,omitempty"`

	// Header fields.
	Channels []string   `json:"channels,omitempty"`
	Switches int        `json:"switches,omitempty"`
	Nodes    int        `json:"nodes,omitempty"`
	Every    event.Time `json:"every,omitempty"`
	Dropped  int64      `json:"dropped,omitempty"`

	// Snapshot payload.
	Snap *Snapshot `json:"snap,omitempty"`
}

// WriteJSONL streams bundles as line-delimited JSON: one header line per
// bundle followed by one line per snapshot.
func WriteJSONL(w io.Writer, bundles []Bundle) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range bundles {
		b := &bundles[i]
		if err := enc.Encode(jsonlRecord{
			Cell: b.Cell, Meta: true,
			Channels: b.Channels, Switches: b.Switches, Nodes: b.Nodes,
			Every: b.Every, Dropped: b.Dropped,
		}); err != nil {
			return err
		}
		for j := range b.Snapshots {
			if err := enc.Encode(jsonlRecord{Cell: b.Cell, Snap: &b.Snapshots[j]}); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadJSONL reverses WriteJSONL. Snapshot lines must follow their
// bundle's header line, which WriteJSONL guarantees.
func ReadJSONL(r io.Reader) ([]Bundle, error) {
	dec := json.NewDecoder(r)
	var out []Bundle
	idx := map[string]int{}
	for {
		var rec jsonlRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("obs: jsonl decode: %w", err)
		}
		if rec.Meta {
			idx[rec.Cell] = len(out)
			out = append(out, Bundle{
				Cell: rec.Cell, Channels: rec.Channels,
				Switches: rec.Switches, Nodes: rec.Nodes,
				Every: rec.Every, Dropped: rec.Dropped,
			})
			continue
		}
		i, ok := idx[rec.Cell]
		if !ok {
			return nil, fmt.Errorf("obs: jsonl snapshot for %q before its header", rec.Cell)
		}
		if rec.Snap == nil {
			return nil, fmt.Errorf("obs: jsonl line for %q is neither header nor snapshot", rec.Cell)
		}
		out[i].Snapshots = append(out[i].Snapshots, *rec.Snap)
	}
	return out, nil
}

// heatShades maps utilization 0..1 onto display characters, lightest to
// densest. Index 0 is reserved for exact zero.
var heatShades = []byte(" .:-=+*#%@")

// WriteHeatmap renders the bundle's per-channel utilization as a text
// heatmap: one row per channel (busiest topN channels, by total flits),
// one column per time bin, each cell shaded by flits transmitted over
// the bin relative to the channel capacity of one flit per cycle. Time
// bins merge adjacent snapshots when the series is wider than maxCols.
func WriteHeatmap(w io.Writer, b Bundle, topN, maxCols int) error {
	if topN <= 0 {
		topN = 16
	}
	if maxCols <= 0 {
		maxCols = 64
	}
	if len(b.Snapshots) == 0 || len(b.Channels) == 0 {
		_, err := fmt.Fprintf(w, "obs heatmap [%s]: no samples\n", b.Cell)
		return err
	}
	totals := make([]int64, len(b.Channels))
	for _, s := range b.Snapshots {
		for ci, v := range s.ChanFlits {
			totals[ci] += v
		}
	}
	order := make([]int, len(b.Channels))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return totals[order[i]] > totals[order[j]] })
	if len(order) > topN {
		order = order[:topN]
	}
	bins := len(b.Snapshots)
	per := 1
	for bins > maxCols {
		per *= 2
		bins = (len(b.Snapshots) + per - 1) / per
	}
	labW := 0
	for _, ci := range order {
		if n := len(b.Channels[ci]); n > labW {
			labW = n
		}
	}
	if _, err := fmt.Fprintf(w,
		"obs heatmap [%s]: %d channels (top %d shown), %d samples @ %d cycles, %d cycles/column\n",
		b.Cell, len(b.Channels), len(order), len(b.Snapshots), b.Every, int64(b.Every)*int64(per)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  scale: '%s' = 0%%..100%% of link capacity; total flits %d\n",
		string(heatShades), b.TotalFlits()); err != nil {
		return err
	}
	line := make([]byte, bins)
	for _, ci := range order {
		for bin := 0; bin < bins; bin++ {
			var flits, span int64
			for k := bin * per; k < (bin+1)*per && k < len(b.Snapshots); k++ {
				flits += b.Snapshots[k].ChanFlits[ci]
				span += int64(b.Every)
			}
			u := float64(flits) / float64(span)
			switch {
			case flits == 0:
				line[bin] = heatShades[0]
			case u >= 1:
				line[bin] = heatShades[len(heatShades)-1]
			default:
				i := 1 + int(u*float64(len(heatShades)-1))
				if i >= len(heatShades) {
					i = len(heatShades) - 1
				}
				line[bin] = heatShades[i]
			}
		}
		if _, err := fmt.Fprintf(w, "  %-*s |%s| %d\n", labW, b.Channels[ci], line, totals[ci]); err != nil {
			return err
		}
	}
	return nil
}
