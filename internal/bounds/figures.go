package bounds

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"repro/internal/par"
)

// SInfinity is the sentinel period meaning "non-systolic" (s → ∞) in figure
// rows.
const SInfinity = 0

// Fig4Row is one column of Fig. 4: the general directed/half-duplex
// coefficient e(s) and its root λ₀.
type Fig4Row struct {
	S      int // systolic period; SInfinity for the s→∞ corollary
	E      float64
	Lambda float64
}

// Fig4 regenerates the general lower-bound table of Fig. 4 for the listed
// periods (the paper prints s = 3…8 and ∞).
func Fig4(periods []int) []Fig4Row {
	rows := make([]Fig4Row, 0, len(periods))
	for _, s := range periods {
		var r Fig4Row
		r.S = s
		if s == SInfinity {
			r.E, r.Lambda = GeneralHalfDuplexInfinity()
		} else {
			r.E, r.Lambda = GeneralHalfDuplex(s)
		}
		rows = append(rows, r)
	}
	return rows
}

// Fig4Periods are the periods tabulated by the paper.
var Fig4Periods = []int{3, 4, 5, 6, 7, 8, SInfinity}

// TopologyRow is one cell of the per-topology tables (Figs. 5, 6, 8): the
// coefficient multiplying log₂(n) in the lower bound for the given family,
// degree and period.
type TopologyRow struct {
	Family Family
	D      int // degree parameter d
	S      int // systolic period; SInfinity for non-systolic
	E      float64
	// Source records which of the bounds is active: "separator" when
	// Theorem 5.1 beats the general bound, "general" otherwise, and for
	// Fig. 6 possibly "diameter".
	Source string
}

// Fig5 regenerates the half-duplex systolic per-topology table (Fig. 5) for
// the given degrees and periods. Each cell is the best available bound:
// max(Theorem 5.1, Corollary 4.4), as the paper's "entries with ∗" note
// prescribes. Cells are independent optimizations, so they are computed in
// parallel; the output ordering is deterministic (family, degree, period).
func Fig5(degrees, periods []int) []TopologyRow {
	return eachCell(degrees, periods, func(row *TopologyRow) {
		gen, _ := GeneralHalfDuplex(row.S)
		spec, _ := SeparatorHalfDuplex(LemmaSeparator(row.Family, row.D), row.S)
		if spec > gen {
			row.E, row.Source = spec, "separator"
		} else {
			row.E, row.Source = gen, "general"
		}
	})
}

// eachCell lays out one row per (family, degree, period), in that order,
// and fills each with cell across GOMAXPROCS workers.
func eachCell(degrees, periods []int, cell func(row *TopologyRow)) []TopologyRow {
	rows := make([]TopologyRow, 0, len(Families)*len(degrees)*len(periods))
	for _, f := range Families {
		for _, d := range degrees {
			for _, s := range periods {
				rows = append(rows, TopologyRow{Family: f, D: d, S: s})
			}
		}
	}
	par.Each(runtime.GOMAXPROCS(0), len(rows), func(_, i int) bool {
		cell(&rows[i])
		return true
	})
	return rows
}

// Fig6 regenerates the non-systolic half-duplex table (Fig. 6): for each
// family and degree, the best of the Theorem 5.1 s→∞ bound, the universal
// 1.4404·log₂(n) bound of [4,17,15,26], and the diameter.
func Fig6(degrees []int) []TopologyRow {
	genInf, _ := GeneralHalfDuplexInfinity()
	return eachCell(degrees, []int{SInfinity}, func(row *TopologyRow) {
		row.E, _ = SeparatorHalfDuplexInfinity(LemmaSeparator(row.Family, row.D))
		row.Source = "separator"
		if genInf > row.E {
			row.E, row.Source = genInf, "general"
		}
		if diam := DiameterCoefficient(row.Family, row.D); diam > row.E {
			row.E, row.Source = diam, "diameter"
		}
	})
}

// Fig8 regenerates the full-duplex table (Fig. 8) for the given degrees and
// periods, including the s→∞ rows. Cells take the best of Theorem 5.1's
// full-duplex form, the general full-duplex bound (= broadcasting), and the
// diameter. Like Fig5 the independent cells are computed in parallel.
func Fig8(degrees, periods []int) []TopologyRow {
	return eachCell(degrees, periods, func(row *TopologyRow) {
		sep := LemmaSeparator(row.Family, row.D)
		var gen, spec float64
		if row.S == SInfinity {
			gen, _ = GeneralFullDuplexInfinity()
			spec, _ = SeparatorFullDuplexInfinity(sep)
		} else {
			gen, _ = GeneralFullDuplex(row.S)
			spec, _ = SeparatorFullDuplex(sep, row.S)
		}
		row.E, row.Source = spec, "separator"
		if gen > row.E {
			row.E, row.Source = gen, "general"
		}
		if diam := DiameterCoefficient(row.Family, row.D); diam > row.E {
			row.E, row.Source = diam, "diameter"
		}
	})
}

// FormatFig4 renders a Fig. 4 table in the paper's layout (one row of e(s)
// values).
func FormatFig4(rows []Fig4Row) string {
	var sb strings.Builder
	sb.WriteString("s      ")
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%9s", sLabel(r.S)))
	}
	sb.WriteString("\ne(s)   ")
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%9.4f", r.E))
	}
	sb.WriteString("\nlambda ")
	for _, r := range rows {
		sb.WriteString(fmt.Sprintf("%9.4f", r.Lambda))
	}
	sb.WriteString("\n")
	return sb.String()
}

// FormatTopologyTable renders Fig. 5/6/8-style rows grouped by family and
// degree, one column per period.
func FormatTopologyTable(rows []TopologyRow, periods []int) string {
	var sb strings.Builder
	sb.WriteString(fmt.Sprintf("%-14s %3s", "network", "d"))
	for _, s := range periods {
		sb.WriteString(fmt.Sprintf("%9s", "s="+sLabel(s)))
	}
	sb.WriteString("\n")
	type key struct {
		f Family
		d int
	}
	cells := make(map[key]map[int]TopologyRow)
	var order []key
	for _, r := range rows {
		k := key{r.Family, r.D}
		if _, ok := cells[k]; !ok {
			cells[k] = make(map[int]TopologyRow)
			order = append(order, k)
		}
		cells[k][r.S] = r
	}
	for _, k := range order {
		sb.WriteString(fmt.Sprintf("%-14s %3d", k.f.String(), k.d))
		for _, s := range periods {
			r, ok := cells[k][s]
			if !ok {
				sb.WriteString(fmt.Sprintf("%9s", "-"))
				continue
			}
			mark := ""
			if r.Source == "general" {
				mark = "*"
			} else if r.Source == "diameter" {
				mark = "+"
			}
			sb.WriteString(fmt.Sprintf("%8.4f%s", r.E, orSpace(mark)))
		}
		sb.WriteString("\n")
	}
	sb.WriteString("(* = coincides with the general bound, + = diameter bound)\n")
	return sb.String()
}

func sLabel(s int) string {
	if s == SInfinity {
		return "inf"
	}
	return fmt.Sprint(s)
}

func orSpace(mark string) string {
	if mark == "" {
		return " "
	}
	return mark
}

// Round4 rounds to 4 decimal digits, the precision of the paper's tables;
// used by golden tests and EXPERIMENTS.md generation.
func Round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }
