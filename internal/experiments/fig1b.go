package experiments

import (
	"fmt"
	"sort"

	"odrips/internal/platform"
	"odrips/internal/report"
)

// BreakdownSlice is one wedge of the Fig. 1(b) pie.
type BreakdownSlice struct {
	Label   string
	MW      float64
	Percent float64
}

// Fig1bResult reproduces Fig. 1(b): the breakdown of platform power in
// DRIPS, with power-delivery losses allocated per the paper's footnote 5.
type Fig1bResult struct {
	TotalMW      float64
	ProcessorPct float64
	Slices       []BreakdownSlice
}

// fig1bGroups maps meter components to the paper's wedges. The numbers in
// the labels are the component markers of Fig. 1(a).
var fig1bGroups = []struct {
	label string
	comps []string
}{
	{"Wake-up & timer (5)", []string{"proc.wake-timer"}},
	{"24MHz crystal (1)", []string{"board.xtal24"}},
	{"AON IOs (4)", []string{"proc.aonio"}},
	{"S/R SRAMs (7,8)", []string{"proc.sram.sa", "proc.sram.compute", "proc.sram.boot"}},
	{"PMU AON & CKE (5,6)", []string{"proc.pmu", "proc.compute", "proc.sa"}},
	{"Chipset AON (2)", []string{"chipset.aon", "chipset.monitor"}},
	{"DRAM self-refresh", []string{"dram.module"}},
	{"RTC crystal (3)", []string{"board.xtal32"}},
	{"Board & EC", []string{"board.misc", "board.fet"}},
	{"AON regulators", []string{"vr.fixed", "vr.aonio", "vr.sram", "vr.pmu"}},
}

// Fig1b measures the baseline DRIPS breakdown.
func (rt *Runtime) Fig1b() (*Fig1bResult, error) {
	res, err := rt.runConfig(platform.DefaultConfig(), defaultCycles)
	if err != nil {
		return nil, err
	}
	idleSec := res.Residency[idleState()] * res.Duration.Seconds()
	if idleSec <= 0 {
		return nil, fmt.Errorf("experiments: no idle residency measured")
	}
	var total float64
	for _, j := range res.IdleByComponent {
		total += j
	}
	out := &Fig1bResult{TotalMW: total * 1e3 / idleSec}
	seen := make(map[string]bool)
	for _, g := range fig1bGroups {
		var j float64
		for _, c := range g.comps {
			j += res.IdleByComponent[c]
			seen[c] = true
		}
		out.Slices = append(out.Slices, BreakdownSlice{
			Label:   g.label,
			MW:      j * 1e3 / idleSec,
			Percent: 100 * j / total,
		})
	}
	// Anything unmapped (defensive) lands in a final wedge.
	var rest float64
	for name, j := range res.IdleByComponent {
		if !seen[name] {
			rest += j
		}
	}
	if rest > 1e-12 {
		out.Slices = append(out.Slices, BreakdownSlice{
			Label: "other", MW: rest * 1e3 / idleSec, Percent: 100 * rest / total,
		})
	}
	sort.Slice(out.Slices, func(i, j int) bool { return out.Slices[i].MW > out.Slices[j].MW })
	for _, s := range out.Slices {
		if isProcessorSlice(s.Label) {
			out.ProcessorPct += s.Percent
		}
	}
	return out, nil
}

func isProcessorSlice(label string) bool {
	switch label {
	case "Wake-up & timer (5)", "AON IOs (4)", "S/R SRAMs (7,8)", "PMU AON & CKE (5,6)":
		return true
	}
	return false
}

// Table renders the breakdown.
func (r *Fig1bResult) Table() *report.Table {
	t := report.NewTable(
		fmt.Sprintf("Fig. 1(b) — DRIPS platform power breakdown (total %.1f mW)", r.TotalMW),
		"Component", "mW", "Share")
	for _, s := range r.Slices {
		t.AddRow(s.Label, fmt.Sprintf("%.2f", s.MW), fmt.Sprintf("%.1f%%", s.Percent))
	}
	t.AddNote("processor die total: %.1f%% (paper: 18%%)", r.ProcessorPct)
	t.AddNote("paper anchors: total ~60 mW; AON IOs 7%%; S/R SRAMs 9%%; wake-up hw (timer+crystal) ~5%%")
	return t
}
