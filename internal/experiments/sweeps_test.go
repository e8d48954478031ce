package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"mcmsim/internal/coherence"
	"mcmsim/internal/core"
	"mcmsim/internal/runner"
	"mcmsim/internal/workload"
)

func rowsByLabel(rows []Row, keys ...string) map[string]uint64 {
	out := make(map[string]uint64, len(rows))
	for _, r := range rows {
		k := ""
		for _, key := range keys {
			k += r.Labels[key] + "/"
		}
		out[k] = r.Cycles
	}
	return out
}

// TestEqualization verifies §5's central claim: conventionally SC is
// noticeably slower than RC, and with both techniques the gap between the
// strictest and the most relaxed model shrinks substantially.
func TestEqualization(t *testing.T) {
	rows, err := Equalization(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "model", "tech")
	scConv, rcConv := c["SC/conv/"], c["RC/conv/"]
	scBoth, rcBoth := c["SC/pf+spec/"], c["RC/pf+spec/"]
	if scConv <= rcConv {
		t.Errorf("conventional SC (%d) should be slower than conventional RC (%d)", scConv, rcConv)
	}
	gapConv := float64(scConv) / float64(rcConv)
	gapBoth := float64(scBoth) / float64(rcBoth)
	if gapBoth >= gapConv {
		t.Errorf("techniques did not narrow the SC/RC gap: conv ratio %.3f, with techniques %.3f", gapConv, gapBoth)
	}
	if gapBoth > 1.15 {
		t.Errorf("SC and RC not equalized with techniques: ratio %.3f > 1.15", gapBoth)
	}
	// The techniques must speed SC up, not slow it down.
	if scBoth >= scConv {
		t.Errorf("techniques slowed SC down: %d -> %d", scConv, scBoth)
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestLatencySweep checks the shape of E2: the conventional SC/RC gap grows
// with miss latency; the with-techniques gap stays small at every point.
func TestLatencySweep(t *testing.T) {
	lats := []uint64{20, 100, 400}
	rows, err := LatencySweep(3, 7, lats)
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "miss", "model", "tech")
	var prevGap float64
	for i, lat := range lats {
		key := func(m, tech string) uint64 { return c[fmt.Sprintf("%d/%s/%s/", lat, m, tech)] }
		gapConv := float64(key("SC", "conv")) / float64(key("RC", "conv"))
		gapBoth := float64(key("SC", "pf+spec")) / float64(key("RC", "pf+spec"))
		if gapBoth > gapConv {
			t.Errorf("miss=%d: technique gap %.3f exceeds conventional gap %.3f", lat, gapBoth, gapConv)
		}
		if i > 0 && gapConv < prevGap*0.9 {
			t.Errorf("conventional SC/RC gap shrank sharply with latency: %.3f -> %.3f", prevGap, gapConv)
		}
		prevGap = gapConv
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestContentionSweep checks E3: the squash rate rises with write sharing.
func TestContentionSweep(t *testing.T) {
	rows, err := ContentionSweep(3, 11, []float64{0.05, 0.4, 0.8})
	if err != nil {
		t.Fatal(err)
	}
	lo := rows[0].Extra["squash_rate"]
	hi := rows[len(rows)-1].Extra["squash_rate"]
	if hi <= lo {
		t.Errorf("squash rate did not rise with sharing: %.4f -> %.4f", lo, hi)
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestLookaheadSweep checks E4: with a tiny instruction window the
// techniques gain little; the benefit grows with the reorder buffer.
func TestLookaheadSweep(t *testing.T) {
	rows, err := LookaheadSweep([]int{2, 8, 64})
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "rob", "tech")
	speedup := func(rob int) float64 {
		return float64(c[fmt.Sprintf("%d/conv/", rob)]) / float64(c[fmt.Sprintf("%d/pf+spec/", rob)])
	}
	if speedup(64) <= speedup(2) {
		t.Errorf("technique speedup did not grow with lookahead: rob2=%.3f rob64=%.3f", speedup(2), speedup(64))
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestProtocolComparison checks E5: under the update protocol no exclusive
// prefetches are issued and the prefetch benefit shrinks versus the
// invalidation protocol.
func TestProtocolComparison(t *testing.T) {
	rows, err := ProtocolComparison(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "protocol", "tech")
	invGain := float64(c["invalidate/conv/"]) / float64(c["invalidate/pf/"])
	updGain := float64(c["update/conv/"]) / float64(c["update/pf/"])
	if invGain < 1.0 {
		t.Errorf("prefetching slowed the invalidation protocol down: gain %.3f", invGain)
	}
	if updGain > invGain+0.05 {
		t.Errorf("update-protocol prefetch gain (%.3f) should not exceed invalidation's (%.3f)", updGain, invGain)
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestAdveHillComparison checks E6: the ownership optimization helps SC a
// little; the paper's techniques help much more.
func TestAdveHillComparison(t *testing.T) {
	rows, err := AdveHillComparison(16)
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "impl")
	conv, ah, both := c["conv/"], c["advehill/"], c["pf+spec/"]
	if ah > conv {
		t.Errorf("Adve-Hill slower than conventional: %d > %d", ah, conv)
	}
	if both >= ah {
		t.Errorf("pf+spec (%d) should beat Adve-Hill (%d)", both, ah)
	}
	convGain := float64(conv) / float64(ah)
	techGain := float64(conv) / float64(both)
	if techGain <= convGain {
		t.Errorf("techniques gain (%.3f) should exceed Adve-Hill gain (%.3f)", techGain, convGain)
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestStenstromComparison checks E7: cached SC beats the cacheless NST
// scheme on a workload with reuse.
func TestStenstromComparison(t *testing.T) {
	rows, err := StenstromComparison(16)
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "impl")
	if c["cached-SC/"] >= c["stenstrom-NST/"] {
		t.Errorf("cached SC (%d) should beat NST (%d) on reuse", c["cached-SC/"], c["stenstrom-NST/"])
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestSoftwarePrefetchComparison checks E9: software prefetching is
// insensitive to the instruction window; hardware prefetching degrades as
// the window shrinks; combined is at least as good as software alone.
func TestSoftwarePrefetchComparison(t *testing.T) {
	rows, err := SoftwarePrefetchComparison([]int{4, 64})
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "rob", "prefetch")
	if c["4/sw/"] != c["64/sw/"] {
		t.Errorf("software prefetch should be window-independent: rob4=%d rob64=%d", c["4/sw/"], c["64/sw/"])
	}
	if !(c["4/hw/"] > c["64/hw/"]) {
		t.Errorf("hardware prefetch should degrade with a small window: rob4=%d rob64=%d", c["4/hw/"], c["64/hw/"])
	}
	if c["4/sw/"] >= c["4/hw/"] {
		t.Errorf("at a small window software prefetch (%d) should beat hardware (%d)", c["4/sw/"], c["4/hw/"])
	}
	if c["4/hw+sw/"] > c["4/sw/"] {
		t.Errorf("combined (%d) should not be worse than software alone (%d)", c["4/hw+sw/"], c["4/sw/"])
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestSCDetection checks E10 (the §6 / reference-[6] extension): the
// detector flags the racy message-passing execution whose RC reordering
// actually violates SC, and certifies the data-race-free producer/consumer
// (zero detections means the execution was sequentially consistent).
func TestSCDetection(t *testing.T) {
	rows, err := SCDetection()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		det := r.Extra["detections"]
		switch r.Labels["program"] {
		case "MP-racy":
			if r.Labels["relaxed"] == "true" && det == 0 {
				t.Error("SC-violating execution not detected")
			}
		case "producer-consumer-DRF":
			if det != 0 {
				t.Errorf("false positive: %v detections on a data-race-free program", det)
			}
		}
		t.Log(r)
	}
}

// TestDetectionPolicyComparison checks E11: under pure false sharing the
// repeat-and-compare policy eliminates the conservative squashes (footnote
// 2) and runs faster; under true sharing the policies do not diverge in
// the wrong direction.
func TestDetectionPolicyComparison(t *testing.T) {
	rows, err := DetectionPolicyComparison(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	get := func(wl, pol string) Row {
		for _, r := range rows {
			if r.Labels["workload"] == wl && r.Labels["policy"] == pol {
				return r
			}
		}
		t.Fatalf("row %s/%s missing", wl, pol)
		return Row{}
	}
	fsCons, fsReval := get("false-sharing", "conservative"), get("false-sharing", "revalidate")
	if fsCons.Extra["squashes"] == 0 {
		t.Error("false-sharing workload produced no conservative squashes (workload regression)")
	}
	if fsReval.Extra["squashes"] != 0 {
		t.Errorf("revalidation still squashed %v times under pure false sharing", fsReval.Extra["squashes"])
	}
	if fsReval.Extra["reval_ok"] == 0 {
		t.Error("no confirmed revalidations under false sharing")
	}
	if fsReval.Cycles >= fsCons.Cycles {
		t.Errorf("revalidation (%d) should beat conservative squashing (%d) under false sharing",
			fsReval.Cycles, fsCons.Cycles)
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestBandwidthComparison checks E12: with a bounded-service home module a
// single home saturates under streaming misses; interleaving lines across
// four modules recovers most of the unlimited-bandwidth performance.
func TestBandwidthComparison(t *testing.T) {
	rows, err := BandwidthComparison(8)
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "modules", "bw")
	single, inf := c["1/1/"], c["1/inf/"]
	four := c["4/1/"]
	if single <= inf {
		t.Errorf("bounded single module (%d) should be slower than unlimited (%d)", single, inf)
	}
	if four >= single {
		t.Errorf("four modules (%d) should beat one (%d) at the same per-module bandwidth", four, single)
	}
	if float64(four) > float64(inf)*1.2 {
		t.Errorf("four bounded modules (%d) should approach unlimited bandwidth (%d)", four, inf)
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestMSHRSweep checks E13: the techniques need multiple outstanding
// requests; one MSHR strangles them, and the benefit grows with MSHRs.
func TestMSHRSweep(t *testing.T) {
	rows, err := MSHRSweep([]int{1, 4, 16})
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "mshrs", "tech")
	speedup := func(m int) float64 {
		return float64(c[fmt.Sprintf("%d/conv/", m)]) / float64(c[fmt.Sprintf("%d/pf+spec/", m)])
	}
	if speedup(1) > 1.5 {
		t.Errorf("one MSHR should strangle the techniques: speedup %.2f", speedup(1))
	}
	if speedup(16) <= speedup(1)*2 {
		t.Errorf("techniques should scale with MSHRs: 1->%.2f 16->%.2f", speedup(1), speedup(16))
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestSuiteProtocol pins Params.Protocol as a result-changing input. Under
// MESI the store after each of E13's read misses is a silent E-state
// upgrade instead of a second transaction, so every conventional row drops
// from 12800 to 6464 cycles and pf+spec at 16 MSHRs from 815 to 464. E5
// compares protocols itself, so its rows must not move.
func TestSuiteProtocol(t *testing.T) {
	t.Parallel()
	rows := func(name string, proto coherence.Protocol) []Row {
		t.Helper()
		sw, ok := SweepByName(name)
		if !ok {
			t.Fatalf("no sweep %q", name)
		}
		p := DefaultParams()
		p.Protocol = proto
		rows, err := runner.Execute(sw.Jobs(p), 0)
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	for _, want := range []struct {
		proto        coherence.Protocol
		conv, both16 uint64
	}{
		{coherence.ProtoInvalidate, 12800, 815},
		{coherence.ProtoMESI, 6464, 464},
	} {
		c := rowsByLabel(rows("mshr", want.proto), "mshrs", "tech")
		for _, m := range []int{1, 2, 4, 8, 16} {
			if got := c[fmt.Sprintf("%d/conv/", m)]; got != want.conv {
				t.Errorf("%v: E13 conv at %d MSHRs = %d cycles, want %d", want.proto, m, got, want.conv)
			}
		}
		if got := c["16/pf+spec/"]; got != want.both16 {
			t.Errorf("%v: E13 pf+spec at 16 MSHRs = %d cycles, want %d", want.proto, got, want.both16)
		}
	}
	if msi, mesi := rows("protocol", coherence.ProtoInvalidate), rows("protocol", coherence.ProtoMESI); !reflect.DeepEqual(msi, mesi) {
		t.Errorf("E5 sets its own protocols, yet its rows moved with Params.Protocol:\nmsi:  %v\nmesi: %v", msi, mesi)
	}
}

// TestUpdateProtocolPreservesModels runs the litmus battery under the
// write-update protocol with both techniques on SC: the detection
// mechanism must also work off update messages (§4.1 monitors
// "invalidations OR updates"), so no forbidden outcome may appear.
func TestUpdateProtocolPreservesModels(t *testing.T) {
	for _, l := range workload.AllLitmus() {
		cell, err := RunLitmusWithProtocol(l, core.SC, TechBoth, coherence.ProtoUpdate)
		if err != nil {
			t.Fatal(err)
		}
		if cell.Relaxed {
			t.Errorf("%s: forbidden outcome under SC with the update protocol", l.Name)
		}
	}
}

// TestReissueAblation checks E14: §4.2's second-case optimization converts
// some pipeline flushes into bare load reissues and never loses time.
func TestReissueAblation(t *testing.T) {
	rows, err := ReissueAblation(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	c := map[string]Row{}
	for _, r := range rows {
		c[r.Labels["policy"]] = r
	}
	always, opt := c["flush-always"], c["reissue-opt"]
	if opt.Extra["reissues"] == 0 {
		t.Error("reissue path never exercised (workload regression)")
	}
	if opt.Extra["flushes"] >= always.Extra["flushes"] {
		t.Errorf("optimization did not reduce flushes: %v vs %v",
			opt.Extra["flushes"], always.Extra["flushes"])
	}
	if opt.Cycles > always.Cycles {
		t.Errorf("reissue optimization slower: %d vs %d", opt.Cycles, always.Cycles)
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestWarmedEqualization checks E15: on fully warmed caches the measured
// kernel's misses are the stores' ownership upgrades, so conventional SC
// (which serializes on them) stays well behind, while both techniques pull
// SC down to exactly the relaxed-model cycle count — equalization in its
// sharpest form. The sweep exists to exercise the warmup-snapshot cache:
// all ten grid points declare the same warmup key.
func TestWarmedEqualization(t *testing.T) {
	rows, err := WarmedEqualization()
	if err != nil {
		t.Fatal(err)
	}
	c := rowsByLabel(rows, "model", "tech")
	scConv, scBoth := c["SC/conv/"], c["SC/pf+spec/"]
	rcConv, rcBoth := c["RC/conv/"], c["RC/pf+spec/"]
	if scConv <= 2*rcConv {
		t.Errorf("warmed conventional SC (%d) should trail RC (%d) by well over 2x", scConv, rcConv)
	}
	if scBoth != rcBoth {
		t.Errorf("with both techniques SC (%d) should exactly match RC (%d) on warmed caches", scBoth, rcBoth)
	}
	keys := map[string]bool{}
	for _, j := range WarmedEqualizationJobs(coherence.ProtoInvalidate) {
		if j.Warmup == nil {
			t.Fatalf("job %s declares no warmup", j.Name)
		}
		keys[j.Warmup.Key] = true
	}
	if len(keys) != 1 {
		t.Errorf("E15 jobs should share one warmup key, got %d distinct keys", len(keys))
	}
	for _, r := range rows {
		t.Log(r)
	}
}
