// Command topogen generates random irregular switch topologies in the
// library's text interchange format (see topology.WriteText).
//
// Usage:
//
//	topogen -switches 8 -ports 8 -nodes 32 -seed 7 > net.topo
//	topogen -family 10 -seed 1998 -dir topos/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mcastsim/internal/rng"
	"mcastsim/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "topogen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("topogen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		switches = fs.Int("switches", 8, "number of switches")
		ports    = fs.Int("ports", 8, "ports per switch")
		nodes    = fs.Int("nodes", 32, "number of processing nodes")
		extra    = fs.Float64("extra", -1, "extra links per switch beyond the spanning tree (-1 = default 0.75)")
		seed     = fs.Uint64("seed", 1, "generation seed")
		family   = fs.Int("family", 0, "generate a family of this many topologies into -dir")
		dir      = fs.String("dir", ".", "output directory for -family")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Checked before generating, so a refused width writes no file.
	if *ports > topology.MaxPortsPerSwitch {
		return fmt.Errorf("-ports %d: a topology file holds at most %d ports per switch", *ports, topology.MaxPortsPerSwitch)
	}

	cfg := topology.Config{
		Switches:            *switches,
		PortsPerSwitch:      *ports,
		Nodes:               *nodes,
		ExtraLinksPerSwitch: *extra,
	}
	if *family > 0 {
		fam, err := topology.GenerateFamily(cfg, *family, *seed)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return err
		}
		for i, t := range fam {
			name := filepath.Join(*dir, fmt.Sprintf("topo_%03d.topo", i))
			f, err := os.Create(name)
			if err != nil {
				return err
			}
			if err := topology.WriteText(f, t); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "wrote %s (%d links)\n", name, len(t.Links))
		}
		return nil
	}
	t, err := topology.Generate(cfg, rng.New(*seed))
	if err != nil {
		return err
	}
	return topology.WriteText(stdout, t)
}
