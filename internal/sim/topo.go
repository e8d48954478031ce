package sim

import (
	"fmt"
	"strconv"
	"strings"

	"mcmsim/internal/network"
)

// meshDims resolves a mesh spec to its dimensions: "mesh" auto-sizes to
// the squarest W×H grid with at least procs tiles (W = ceil(sqrt(P)));
// "mesh:WxH" is explicit. Explicit dimensions may be smaller than the CPU
// count — tiles are then shared — but must be positive. Any other spec is
// an unknown topology.
func meshDims(spec string, procs int) (w, h int, err error) {
	if spec == "mesh" {
		w = 1
		for w*w < procs {
			w++
		}
		h = (procs + w - 1) / w
		if h < 1 {
			h = 1
		}
		return w, h, nil
	}
	dims, ok := strings.CutPrefix(spec, "mesh:")
	if !ok {
		return 0, 0, fmt.Errorf("sim: unknown topology %q (want uniform, mesh, or mesh:WxH)", spec)
	}
	ws, hs, ok := strings.Cut(dims, "x")
	if ok {
		w, err = strconv.Atoi(ws)
		if err == nil {
			h, err = strconv.Atoi(hs)
		}
	}
	if !ok || err != nil || w < 1 || h < 1 {
		return 0, 0, fmt.Errorf("sim: bad mesh dimensions %q (want mesh:WxH)", spec)
	}
	return w, h, nil
}

// buildNetwork constructs the interconnect of a resolved configuration.
func buildNetwork(cfg Config) *network.Network {
	if cfg.Topo == "" {
		return network.New(cfg.NetLatency)
	}
	w, h, _ := meshDims(cfg.Topo, cfg.Procs)
	m := network.NewMesh(w, h, cfg.HopLatency, cfg.LinkGap)
	tiles := m.Tiles()
	// DASH-style clusters: CPU i and home module i share a tile, so a
	// processor's slice of the distributed memory is one local hop away.
	// The write agent (harness-only traffic) sits on tile 0.
	for i := 0; i < cfg.Procs; i++ {
		m.Place(network.NodeID(i), i%tiles)
	}
	for j := 0; j < cfg.MemModules; j++ {
		m.Place(network.NodeID(cfg.Procs+j), j%tiles)
	}
	m.Place(network.NodeID(cfg.Procs+cfg.MemModules), 0)
	return network.NewWithTopology(m)
}
