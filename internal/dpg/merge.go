package dpg

import "fmt"

// MergeResults combines the Results of independent model runs into one
// aggregate Result by exact summation: every count, histogram bucket, and
// cross-tabulation cell of the output is the field-wise sum of the inputs,
// and GenPoints is the union of the inputs' maps with per-PC sums. Merging
// is exact because every Result statistic is a plain count over its own
// trace — there is no cross-trace predictor state to reconcile — so
// analyzing a workload's traces separately (possibly in parallel) and
// merging is byte-identical to any other grouping of the same
// runs: the operation is associative and, Graph aside, commutative.
//
// The inputs must agree on Predictor (the merged figures would otherwise
// mix incomparable prediction models); a mismatch is reported as an error
// matching ErrConfig. Name is carried through when every input agrees and
// left empty otherwise — callers aggregating distinct traces name the
// merge themselves. Graph is a bounded recording of one trace's opening
// window, not a statistic, so the merge adopts the first non-nil fragment
// rather than concatenating unrelated windows.
//
// The inputs are not mutated. The returned Result shares no mutable state
// with them except Graph, which is adopted by reference (fragments are
// never modified after a run finishes).
func MergeResults(results ...*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("%w: MergeResults needs at least one Result", ErrConfig)
	}
	for i, r := range results {
		if r == nil {
			return nil, fmt.Errorf("%w: MergeResults input %d is nil", ErrConfig, i)
		}
		if r.Predictor != results[0].Predictor {
			return nil, fmt.Errorf("%w: MergeResults input %d uses predictor %q, input 0 uses %q",
				ErrConfig, i, r.Predictor, results[0].Predictor)
		}
	}

	out := &Result{
		Name:      results[0].Name,
		Predictor: results[0].Predictor,
	}
	for _, r := range results {
		if r.Name != out.Name {
			out.Name = ""
		}

		out.Nodes += r.Nodes
		out.Arcs += r.Arcs
		out.DNodes += r.DNodes
		out.DArcs += r.DArcs
		out.NeutralNodes += r.NeutralNodes

		for c := range r.NodeCount {
			out.NodeCount[c] += r.NodeCount[c]
		}
		for g := range r.NodeByGroup {
			for c := range r.NodeByGroup[g] {
				out.NodeByGroup[g][c] += r.NodeByGroup[g][c]
			}
		}
		for u := range r.ArcCount {
			for l := range r.ArcCount[u] {
				out.ArcCount[u][l] += r.ArcCount[u][l]
			}
		}

		for c := range r.Path.ClassElems {
			out.Path.ClassElems[c] += r.Path.ClassElems[c]
		}
		for m := range r.Path.ComboElems {
			out.Path.ComboElems[m] += r.Path.ComboElems[m]
		}
		for k := range r.Path.NumGenHist {
			out.Path.NumGenHist[k] += r.Path.NumGenHist[k]
		}
		for b := range r.Path.DistHist {
			out.Path.DistHist[b] += r.Path.DistHist[b]
		}
		out.Path.Elems += r.Path.Elems

		for b := range r.Trees.GensByDepth {
			out.Trees.GensByDepth[b] += r.Trees.GensByDepth[b]
			out.Trees.SizeByDepth[b] += r.Trees.SizeByDepth[b]
		}
		for c := range r.Trees.ClassGens {
			out.Trees.ClassGens[c] += r.Trees.ClassGens[c]
		}
		out.Trees.Gens += r.Trees.Gens
		out.Trees.Size += r.Trees.Size

		for b := range r.Seq.InstrByLen {
			out.Seq.InstrByLen[b] += r.Seq.InstrByLen[b]
			out.Seq.RunsByLen[b] += r.Seq.RunsByLen[b]
		}
		out.Seq.PredictableInstrs += r.Seq.PredictableInstrs

		for c := range r.Branch.Count {
			out.Branch.Count[c] += r.Branch.Count[c]
		}
		out.Branch.Branches += r.Branch.Branches
		out.Branch.Correct += r.Branch.Correct

		for a := range r.Addr.Count {
			for d := range r.Addr.Count[a] {
				out.Addr.Count[a][d] += r.Addr.Count[a][d]
			}
		}
		out.Addr.Loads += r.Addr.Loads
		out.Addr.Stores += r.Addr.Stores

		for pc, gp := range r.GenPoints {
			if out.GenPoints == nil {
				out.GenPoints = make(map[uint32]*GenPoint, len(r.GenPoints))
			}
			dst := out.GenPoints[pc]
			if dst == nil {
				dst = &GenPoint{PC: pc}
				out.GenPoints[pc] = dst
			}
			dst.Gens += gp.Gens
			dst.TreeSize += gp.TreeSize
		}

		if out.Graph == nil {
			out.Graph = r.Graph
		}
	}
	return out, nil
}
