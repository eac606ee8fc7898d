package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/dpg"
)

// AnalyzeDir analyzes every trace file in a directory and merges the
// per-trace Results into one exact aggregate. The directory is listed
// once: its *.dpg files (subdirectories skipped) in sorted name order go
// to AnalyzeFiles with up to parallel concurrent analyses, and the partial
// Results are combined with dpg.MergeResults. Merging is exact summation —
// every count and histogram of the aggregate equals what a single Result
// over the concatenated populations would hold — and the merge folds in
// sorted path order, so the aggregate is independent of the parallel
// configuration.
//
// The per-file outcomes are always returned (in sorted path order) for
// inspection alongside the aggregate. Any per-file failure fails the whole
// merge: a partial aggregate would silently misweight the surviving files,
// so the error names the failing files instead. The merged Result is named
// after the directory unless every trace in it reports the same workload
// name.
func AnalyzeDir(dir string, parallel int, opts ...Option) (*dpg.Result, []FileResult, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("core: listing %s: %w", dir, err)
	}
	var paths []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".dpg") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("%w: no .dpg trace files in %s", ErrConfig, dir)
	}

	files := AnalyzeFiles(paths, parallel, opts...)
	var errs []error
	merge := make([]*dpg.Result, 0, len(files))
	for i := range files {
		if files[i].Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", files[i].Path, files[i].Err))
			continue
		}
		merge = append(merge, files[i].Res)
	}
	if len(errs) > 0 {
		return nil, files, errors.Join(errs...)
	}

	merged, err := dpg.MergeResults(merge...)
	if err != nil {
		return nil, files, err
	}
	if merged.Name == "" {
		merged.Name = filepath.Base(dir)
	}
	return merged, files, nil
}
