package harness

import (
	"context"
	"fmt"

	"opgate/internal/isa"
	"opgate/internal/power"
	"opgate/internal/uarch"
	"opgate/internal/vrp"
)

// Table1 regenerates the ALU energy-savings matrix: energy saved moving an
// ALU operation from a source width (row) to a destination width (column).
// The power model's width profile is calibrated so these match the paper's
// integers exactly (6/5/3/2/1 nJ pattern).
func (s *Suite) Table1() *Report {
	t := power.ALUSavingsTable(power.DefaultParams())
	names := []string{"64", "32", "16", "8"}
	rep := &Report{
		ID:      "table1",
		Title:   "Energy savings for ALU operations (nJ), source width (row) -> dest width (column)",
		Unit:    "nJ",
		Columns: names,
	}
	for i, src := range names {
		rep.Rows = append(rep.Rows, Row{Label: "src " + src, Values: t[i][:]})
	}
	return rep
}

// Table2 reports the machine parameters the simulator implements, as a
// freeform-text listing (the paper's Table 2 is prose, not a matrix).
func (s *Suite) Table2() *Report {
	c := uarch.DefaultConfig()
	mem := c.Memory
	f := fmt.Sprintf
	return &Report{
		ID:    "table2",
		Title: "Machine parameters",
		Unit:  "text",
		Text: []string{
			f("Fetch width              %d instructions", c.FetchWidth),
			f("I-cache                  %dKB, %d-way, %d-byte lines, %d-cycle hit",
				mem.L1I.SizeBytes>>10, mem.L1I.Assoc, mem.L1I.LineBytes, mem.L1I.HitCycles),
			f("Branch predictor         gshare %dK x 2-bit + bimodal %dK, chooser %dK, %d-bit history",
				c.Predictor.GshareEntries>>10, c.Predictor.BimodalEntries>>10,
				c.Predictor.ChooserEntries>>10, c.Predictor.HistoryBits),
			f("Decode/rename width      %d instructions", c.DecodeWidth),
			f("Max in-flight            %d", c.WindowSize),
			f("Retire width             %d instructions", c.RetireWidth),
			f("Functional units         %d intALU + %d int mul/div", c.IntALUs, c.IntMulDiv),
			f("Issue width              %d, out-of-order, window based", c.IssueWidth),
			f("D-cache L1               %dKB, %d-way, %d-byte lines, %d-cycle hit",
				mem.L1D.SizeBytes>>10, mem.L1D.Assoc, mem.L1D.LineBytes, mem.L1D.HitCycles),
			f("L2                       %dKB, %d-way, %d-byte lines, %d-cycle hit; mem %d+%d cycles",
				mem.L2.SizeBytes>>10, mem.L2.Assoc, mem.L2.LineBytes, mem.L2.HitCycles,
				mem.MemFirstChunk, mem.MemInterChunk),
			f("Physical registers       %d", c.PhysRegs),
		},
	}
}

// Table3 regenerates the distribution of operation types: for each class,
// its share of dynamic instructions and the width split within the class,
// measured on the proposed-VRP binaries across the suite.
func (s *Suite) Table3(ctx context.Context) (*Report, error) {
	type tally struct {
		perClass   [isa.NumClasses][4]int64
		classTotal [isa.NumClasses]int64
		total      int64
	}
	tallies, err := mapNames(ctx, s, func(name string) (*tally, error) {
		prof, err := s.records(name, "vrp")
		if err != nil {
			return nil, err
		}
		t := new(tally)
		for idx, n := range prof.counts {
			in := &prof.p.Ins[idx]
			if n == 0 || !vrp.CountsWidth(in.Op) {
				continue
			}
			cls := isa.ClassOf(in.Op)
			t.perClass[cls][widthIndex(in.Width)] += n
			t.classTotal[cls] += n
			t.total += n
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}

	var perClass [isa.NumClasses][4]int64
	var classTotal [isa.NumClasses]int64
	var total int64
	for _, t := range tallies {
		for cls := range t.perClass {
			for wi := range t.perClass[cls] {
				perClass[cls][wi] += t.perClass[cls][wi]
			}
			classTotal[cls] += t.classTotal[cls]
		}
		total += t.total
	}

	rep := &Report{
		ID:      "table3",
		Title:   "Distribution of operation types (dynamic, after proposed VRP)",
		Unit:    "fraction",
		Columns: []string{"% of instrs", "64b", "32b", "16b", "8b"},
		Percent: true,
	}
	order := []isa.Class{isa.ClassAdd, isa.ClassMask, isa.ClassCmp, isa.ClassShift,
		isa.ClassSub, isa.ClassLogic, isa.ClassCmov, isa.ClassMul,
		isa.ClassLoad, isa.ClassStore}
	for _, cls := range order {
		if classTotal[cls] == 0 {
			continue
		}
		ct := float64(classTotal[cls])
		rep.Rows = append(rep.Rows, Row{
			Label: cls.String(),
			Values: []float64{
				ct / float64(total),
				float64(perClass[cls][3]) / ct,
				float64(perClass[cls][2]) / ct,
				float64(perClass[cls][1]) / ct,
				float64(perClass[cls][0]) / ct,
			},
		})
	}
	rep.Note = "paper's Table 3 covers SpecInt95; shares here are the synthetic suite's"
	return rep, nil
}

func widthIndex(w isa.Width) int {
	switch w {
	case isa.W8:
		return 0
	case isa.W16:
		return 1
	case isa.W32:
		return 2
	default:
		return 3
	}
}
