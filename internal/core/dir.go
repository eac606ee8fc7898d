package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dpg"
	"repro/internal/predictor"
)

// TraceFiles lists a directory's trace files: its *.dpg entries that are
// not directories, in sorted name order. It is the one listing behind
// AnalyzeDir and dpgrun's directory modes.
func TraceFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: listing %s: %w", dir, err)
	}
	var paths []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".dpg") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	return paths, nil
}

// AnalyzeDir analyzes every trace file in a directory under every
// predictor in kinds and merges the per-trace Results into one exact
// aggregate per kind, returned in kinds order. The directory is listed
// once (TraceFiles), and the files go to AnalyzeFiles with up to parallel
// concurrent analyses, so each file is decoded once for all the kinds;
// the partial Results of each kind are combined with dpg.MergeResults.
// Merging is exact summation — every count and histogram of an aggregate
// equals what a single Result over the concatenated populations would
// hold — and the merge folds in sorted path order, so the aggregates are
// independent of the parallel configuration. Like AnalyzeFileKinds it
// ignores WithKind and WithPredictor.
//
// The per-file outcomes are always returned (in sorted path order) for
// inspection alongside the aggregates. Any per-file failure fails the
// whole merge: a partial aggregate would silently misweight the surviving
// files, so the error names the failing files instead. Each merged Result
// is named after the directory unless every trace in it reports the same
// workload name.
func AnalyzeDir(dir string, kinds []predictor.Kind, parallel int, opts ...Option) ([]*dpg.Result, []FileResult, error) {
	paths, err := TraceFiles(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("%w: no .dpg trace files in %s", ErrConfig, dir)
	}

	files := AnalyzeFiles(paths, kinds, parallel, opts...)
	var errs []error
	for _, fr := range files {
		if fr.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", fr.Path, fr.Err))
		}
	}
	if len(errs) > 0 {
		return nil, files, errors.Join(errs...)
	}

	merged := make([]*dpg.Result, len(kinds))
	parts := make([]*dpg.Result, len(files))
	for k := range kinds {
		for i, fr := range files {
			parts[i] = fr.Res[k]
		}
		if merged[k], err = dpg.MergeResults(parts...); err != nil {
			return nil, files, err
		}
		if merged[k].Name == "" {
			merged[k].Name = filepath.Base(dir)
		}
	}
	return merged, files, nil
}
