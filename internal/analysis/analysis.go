// Package analysis turns raw model results (dpg.Result) into the data
// series behind each table and figure of the paper's evaluation section.
// Rendering lives in internal/report; this package is pure computation so
// the figures are testable.
package analysis

import (
	"sort"

	"repro/internal/dpg"
)

// The reuse and confidence experiments' parameters. Core's
// streaming-experiment table reads them for both the figures suite and
// dpgd's ?experiments=, so the two can never diverge.
const (
	// ReuseBits sizes the reuse buffer: 2^16 = 64K entries.
	ReuseBits = 16
	// ConfMaxLevel is the confidence sweep's top threshold: levels 0..7.
	ConfMaxLevel = 7
)

// Table1Row is one benchmark row of Table 1 (benchmark characteristics).
type Table1Row struct {
	Name       string
	Nodes      uint64
	Arcs       uint64
	EdgesPerNd float64 // arcs/nodes ratio (~1.5 INT, ~1.7 FP in the paper)
	DNodePct   float64 // D nodes as % of nodes (paper: < .03%)
	DArcPct    float64 // arcs from D nodes as % of arcs (paper: < 1%, max 2.6%)
}

// Table1 summarises the DPG characteristics of each run. The statistics
// are predictor-independent, so any predictor's results work.
func Table1(results []*dpg.Result) []Table1Row {
	rows := make([]Table1Row, 0, len(results))
	for _, r := range results {
		row := Table1Row{
			Name:       r.Name,
			Nodes:      r.Nodes,
			Arcs:       r.Arcs,
			EdgesPerNd: r.EdgesPerNode(),
		}
		if r.Nodes > 0 {
			row.DNodePct = 100 * float64(r.DNodes) / float64(r.Nodes)
		}
		if r.Arcs > 0 {
			row.DArcPct = 100 * float64(r.DArcs) / float64(r.Arcs)
		}
		rows = append(rows, row)
	}
	return rows
}

// OverallRow is one bar group of Fig. 5: generation, propagation and
// termination percentages for nodes and arcs, all expressed against the
// paper's nodes+arcs denominator.
type OverallRow struct {
	Name      string
	Predictor string
	NodeGen   float64
	NodeProp  float64
	NodeTerm  float64
	ArcGen    float64
	ArcProp   float64
	ArcTerm   float64
	// UnpredPct is the remainder: elements propagating unpredictability
	// (all-n nodes and <n,n> arcs) plus neutral nodes.
	UnpredPct float64
}

// Overall computes the Fig. 5 row for one run.
func Overall(r *dpg.Result) OverallRow {
	row := OverallRow{
		Name:      r.Name,
		Predictor: r.Predictor,
		NodeGen:   r.Pct(r.NodeGen()),
		NodeProp:  r.Pct(r.NodeProp()),
		NodeTerm:  r.Pct(r.NodeTerm()),
		ArcGen:    r.Pct(r.ArcTotal(dpg.ArcNP)),
		ArcProp:   r.Pct(r.ArcTotal(dpg.ArcPP)),
		ArcTerm:   r.Pct(r.ArcTotal(dpg.ArcPN)),
	}
	row.UnpredPct = 100 - row.NodeGen - row.NodeProp - row.NodeTerm -
		row.ArcGen - row.ArcProp - row.ArcTerm
	return row
}

// GenRow is one bar group of Fig. 6: the generation breakdown.
type GenRow struct {
	Name      string
	Predictor string
	// Arc segments, bottom to top in the paper's stacking.
	ArcWl float64 // <wl:n,p>
	ArcRd float64 // <rd:n,p>
	ArcR  float64 // <r:n,p>
	Arc1  float64 // <1:n,p>
	// Node segments.
	NodeII float64 // i,i->p
	NodeNN float64 // n,n->p
	NodeIN float64 // i,n->p
}

// Generation computes the Fig. 6 row for one run.
func Generation(r *dpg.Result) GenRow {
	return GenRow{
		Name:      r.Name,
		Predictor: r.Predictor,
		ArcWl:     r.Pct(r.ArcCount[dpg.UseWriteOnce][dpg.ArcNP]),
		ArcRd:     r.Pct(r.ArcCount[dpg.UseRepeatedInput][dpg.ArcNP]),
		ArcR:      r.Pct(r.ArcCount[dpg.UseRepeated][dpg.ArcNP]),
		Arc1:      r.Pct(r.ArcCount[dpg.UseSingle][dpg.ArcNP]),
		NodeII:    r.Pct(r.NodeCount[dpg.NodeGenII]),
		NodeNN:    r.Pct(r.NodeCount[dpg.NodeGenNN]),
		NodeIN:    r.Pct(r.NodeCount[dpg.NodeGenIN]),
	}
}

// PropRow is one bar group of Fig. 7: the propagation breakdown.
type PropRow struct {
	Name      string
	Predictor string
	Arc1      float64 // <1:p,p>
	ArcR      float64 // <r:p,p>
	ArcWl     float64 // <wl:p,p>
	ArcRd     float64 // <rd:p,p>
	NodePP    float64 // p,p->p
	NodePI    float64 // p,i->p
	NodePN    float64 // p,n->p
}

// Propagation computes the Fig. 7 row for one run.
func Propagation(r *dpg.Result) PropRow {
	return PropRow{
		Name:      r.Name,
		Predictor: r.Predictor,
		Arc1:      r.Pct(r.ArcCount[dpg.UseSingle][dpg.ArcPP]),
		ArcR:      r.Pct(r.ArcCount[dpg.UseRepeated][dpg.ArcPP]),
		ArcWl:     r.Pct(r.ArcCount[dpg.UseWriteOnce][dpg.ArcPP]),
		ArcRd:     r.Pct(r.ArcCount[dpg.UseRepeatedInput][dpg.ArcPP]),
		NodePP:    r.Pct(r.NodeCount[dpg.NodePropPP]),
		NodePI:    r.Pct(r.NodeCount[dpg.NodePropPI]),
		NodePN:    r.Pct(r.NodeCount[dpg.NodePropPN]),
	}
}

// TermRow is one bar group of Fig. 8: the termination breakdown.
type TermRow struct {
	Name      string
	Predictor string
	Arc1      float64 // <1:p,n>
	ArcR      float64 // <r:p,n>
	ArcWl     float64 // <wl:p,n>
	ArcRd     float64 // <rd:p,n>
	NodePN    float64 // p,n->n
	NodePP    float64 // p,p->n
	NodePI    float64 // p,i->n
}

// Termination computes the Fig. 8 row for one run.
func Termination(r *dpg.Result) TermRow {
	return TermRow{
		Name:      r.Name,
		Predictor: r.Predictor,
		Arc1:      r.Pct(r.ArcCount[dpg.UseSingle][dpg.ArcPN]),
		ArcR:      r.Pct(r.ArcCount[dpg.UseRepeated][dpg.ArcPN]),
		ArcWl:     r.Pct(r.ArcCount[dpg.UseWriteOnce][dpg.ArcPN]),
		ArcRd:     r.Pct(r.ArcCount[dpg.UseRepeatedInput][dpg.ArcPN]),
		NodePN:    r.Pct(r.NodeCount[dpg.NodeTermPN]),
		NodePP:    r.Pct(r.NodeCount[dpg.NodeTermPP]),
		NodePI:    r.Pct(r.NodeCount[dpg.NodeTermPI]),
	}
}

// meanRows averages a slice of float64-field accessors; tiny helper used by
// the exported Average* functions.
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// AverageOverall returns the arithmetic-mean row (the paper's INT/FLOAT
// average bars) labeled name.
func AverageOverall(rows []OverallRow, name string) OverallRow {
	get := func(f func(OverallRow) float64) float64 {
		vals := make([]float64, len(rows))
		for i, r := range rows {
			vals[i] = f(r)
		}
		return mean(vals)
	}
	pred := ""
	if len(rows) > 0 {
		pred = rows[0].Predictor
	}
	return OverallRow{
		Name:      name,
		Predictor: pred,
		NodeGen:   get(func(r OverallRow) float64 { return r.NodeGen }),
		NodeProp:  get(func(r OverallRow) float64 { return r.NodeProp }),
		NodeTerm:  get(func(r OverallRow) float64 { return r.NodeTerm }),
		ArcGen:    get(func(r OverallRow) float64 { return r.ArcGen }),
		ArcProp:   get(func(r OverallRow) float64 { return r.ArcProp }),
		ArcTerm:   get(func(r OverallRow) float64 { return r.ArcTerm }),
		UnpredPct: get(func(r OverallRow) float64 { return r.UnpredPct }),
	}
}

// PathClassRow is the Fig. 9 top graph for one run: the percentage of
// nodes+arcs on predictable paths originating at each generator class
// (elements influenced by several classes count once per class).
type PathClassRow struct {
	Name      string
	Predictor string
	Class     [dpg.NumGenClass]float64
}

// PathClasses computes the Fig. 9 top-graph row for one run.
func PathClasses(r *dpg.Result) PathClassRow {
	row := PathClassRow{Name: r.Name, Predictor: r.Predictor}
	for c := dpg.GenClass(0); c < dpg.NumGenClass; c++ {
		row.Class[c] = r.Pct(r.Path.ClassElems[c])
	}
	return row
}

// AveragePathClasses averages class rows (the paper reports INT averages).
func AveragePathClasses(rows []PathClassRow, name string) PathClassRow {
	out := PathClassRow{Name: name}
	if len(rows) > 0 {
		out.Predictor = rows[0].Predictor
	}
	for c := 0; c < int(dpg.NumGenClass); c++ {
		vals := make([]float64, len(rows))
		for i, r := range rows {
			vals[i] = r.Class[c]
		}
		out.Class[c] = mean(vals)
	}
	return out
}

// ComboShare is one bar of the Fig. 9 bottom graph: the percentage of
// nodes+arcs whose exact influencing class set is Mask.
type ComboShare struct {
	Mask int     // bit c set = class dpg.GenClass(c) present
	Pct  float64 // % of nodes+arcs (counted once)
}

// Label renders the combination as the paper does ("C", "CI", "CDM", ...).
func (cs ComboShare) Label() string {
	if cs.Mask == 0 {
		return "-"
	}
	// Present classes in the paper's order C D W I N M.
	s := ""
	for c := dpg.GenClass(0); c < dpg.NumGenClass; c++ {
		if cs.Mask&(1<<c) != 0 {
			s += c.String()
		}
	}
	return s
}

// Combos averages per-benchmark combination percentages and returns the
// top-n combinations. Following the paper, the ranking (set sizes) comes
// from rankBy (the context-based predictor's results); the same top-24
// combinations are then reported for every predictor.
func Combos(results []*dpg.Result, n int) []ComboShare {
	sums := make([]float64, 1<<dpg.NumGenClass)
	for _, r := range results {
		for mask, cnt := range r.Path.ComboElems {
			sums[mask] += r.Pct(cnt)
		}
	}
	shares := make([]ComboShare, 0, len(sums))
	for mask, s := range sums {
		if mask == 0 {
			continue
		}
		shares = append(shares, ComboShare{Mask: mask, Pct: s / float64(len(results))})
	}
	sort.Slice(shares, func(i, j int) bool {
		if shares[i].Pct != shares[j].Pct {
			return shares[i].Pct > shares[j].Pct
		}
		return shares[i].Mask < shares[j].Mask
	})
	if len(shares) > n {
		shares = shares[:n]
	}
	return shares
}

// ComboPctFor returns the average percentage for a specific mask across
// results (used to report L/S rows against the C-predictor ranking).
func ComboPctFor(results []*dpg.Result, mask int) float64 {
	var s float64
	for _, r := range results {
		s += r.Pct(r.Path.ComboElems[mask])
	}
	if len(results) == 0 {
		return 0
	}
	return s / float64(len(results))
}
