package sim_test

import (
	"reflect"
	"strings"
	"testing"

	"mcmsim/internal/core"
	"mcmsim/internal/isa"
	"mcmsim/internal/sim"
)

// TestResolve pins the one rule that turns a sim.Config into a machine:
// Resolve's defaults and rejections and ResolveScaled's many-core shape.
// Every resolved configuration must resolve to itself.
func TestResolve(t *testing.T) {
	// realistic returns the workload-experiment machine with edits applied.
	realistic := func(edit func(*sim.Config)) sim.Config {
		c := sim.RealisticConfig()
		edit(&c)
		return c
	}
	// scaledMesh is the machine ResolveScaled builds for cpus on the grid
	// topo.
	scaledMesh := func(cpus int, topo string, ptrs int) sim.Config {
		return realistic(func(c *sim.Config) {
			c.Procs, c.Topo, c.MemModules, c.DirPointers = cpus, topo, cpus, ptrs
			c.HopLatency, c.LinkGap = 10, 1
		})
	}
	autoMesh := func(cpus int) sim.Config {
		return realistic(func(c *sim.Config) { c.Procs, c.Topo = cpus, "mesh" })
	}
	explicit := realistic(func(c *sim.Config) {
		c.Procs, c.Topo, c.MemModules, c.DirPointers, c.HopLatency, c.LinkGap = 64, "mesh:4x16", 4, 2, 3, 2
		c.Model = core.RC
	})
	cases := []struct {
		name    string
		in      sim.Config
		scaled  bool
		want    sim.Config
		wantErr string
	}{
		// The uniform default is the seed machine, with its one home module
		// made explicit.
		{name: "uniform_default", in: sim.RealisticConfig(),
			want: realistic(func(c *sim.Config) { c.MemModules = 1 })},
		{name: "uniform_scaled", in: sim.RealisticConfig(), scaled: true,
			want: realistic(func(c *sim.Config) { c.MemModules = 1 })},
		{name: "uniform_spec", in: realistic(func(c *sim.Config) { c.Topo, c.HopLatency, c.LinkGap = "uniform", 5, 3 }),
			want: realistic(func(c *sim.Config) { c.MemModules = 1 })},
		{name: "zero_defaults", in: sim.Config{Procs: 2},
			want: sim.Config{Procs: 2, LineWords: 1, MaxCycles: 2_000_000, MemModules: 1}},
		// An auto-sized mesh: the grid, hop latency 10 and link gap 1, and
		// under ResolveScaled one home per CPU and 8 pointers past 8 CPUs.
		{name: "mesh_unscaled", in: autoMesh(16),
			want: realistic(func(c *sim.Config) { c.Procs, c.Topo, c.MemModules, c.HopLatency, c.LinkGap = 16, "mesh:4x4", 1, 10, 1 })},
		{name: "mesh_4", in: autoMesh(4), scaled: true, want: scaledMesh(4, "mesh:2x2", 0)},
		{name: "mesh_16", in: autoMesh(16), scaled: true, want: scaledMesh(16, "mesh:4x4", 8)},
		{name: "mesh_64", in: autoMesh(64), scaled: true, want: scaledMesh(64, "mesh:8x8", 8)},
		{name: "mesh_256", in: autoMesh(256), scaled: true, want: scaledMesh(256, "mesh:16x16", 8)},
		// Explicit settings win over Resolve's defaults.
		{name: "explicit_overrides", in: explicit, want: explicit},
		{name: "explicit_shape_on_auto_mesh",
			in: realistic(func(c *sim.Config) { c.Procs, c.Topo, c.MemModules, c.DirPointers = 16, "mesh", 2, 4 }),
			want: realistic(func(c *sim.Config) {
				c.Procs, c.Topo, c.MemModules, c.DirPointers, c.HopLatency, c.LinkGap = 16, "mesh:4x4", 2, 4, 10, 1
			})},
		{name: "scaled_explicit_grid", in: realistic(func(c *sim.Config) { c.Procs, c.Topo = 64, "mesh:4x16" }), scaled: true,
			want: scaledMesh(64, "mesh:4x16", 8)},
		// Configurations no machine matches.
		{name: "zero_processors", in: realistic(func(c *sim.Config) { c.Procs, c.Topo = 0, "mesh" }), wantErr: "at least 1 processor"},
		{name: "bad_mesh", in: realistic(func(c *sim.Config) { c.Procs, c.Topo = 4, "mesh:bad" }), wantErr: "bad mesh dimensions"},
		{name: "unknown_topology", in: realistic(func(c *sim.Config) { c.Topo = "torus" }), wantErr: "unknown topology"},
		// Machines past the 4096-node limit, which holds for every
		// configuration a command line, a farm spec or a snapshot names.
		{name: "too_many_processors", in: realistic(func(c *sim.Config) { c.Procs = 4097 }), wantErr: "4097 processors exceed"},
		{name: "too_many_homes", in: realistic(func(c *sim.Config) { c.Procs, c.MemModules = 4, 4097 }), wantErr: "4097 home modules exceed"},
		{name: "too_many_tiles", in: realistic(func(c *sim.Config) { c.Procs, c.Topo = 4, "mesh:4097x1" }), wantErr: "limit of 4096 tiles"},
		{name: "tile_count_overflow", in: realistic(func(c *sim.Config) { c.Procs, c.Topo = 4, "mesh:4294967296x4294967296" }), wantErr: "limit of 4096 tiles"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resolve := sim.Config.Resolve
			if c.scaled {
				resolve = sim.Config.ResolveScaled
			}
			got, err := resolve(c.in)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("error = %v, want one naming %q", err, c.wantErr)
				}
				if _, err := sim.Config.ResolveScaled(c.in); err == nil {
					t.Error("ResolveScaled accepted it")
				}
				assertPanics(t, err.Error(), func() { sim.New(c.in, make([]*isa.Program, c.in.Procs)) })
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("resolved to\n%+v\nwant\n%+v", got, c.want)
			}
			for _, again := range []func(sim.Config) (sim.Config, error){resolve, sim.Config.Resolve} {
				if twice, err := again(got); err != nil || !reflect.DeepEqual(twice, got) {
					t.Errorf("resolving the resolved config gave\n%+v, %v", twice, err)
				}
			}
		})
	}
}

// TestNewRejectsProgramCount: New panics when the programs do not match
// the processor count.
func TestNewRejectsProgramCount(t *testing.T) {
	cfg := sim.RealisticConfig()
	cfg.Procs = 2
	assertPanics(t, "3 programs for 2 processors", func() { sim.New(cfg, make([]*isa.Program, 3)) })
}

func assertPanics(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Errorf("panic %v, want one naming %q", r, want)
		}
	}()
	f()
}
