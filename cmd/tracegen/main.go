// Command tracegen assembles and executes a workload (built-in or a user
// assembly file) and writes its dynamic instruction trace, for consumption
// by cmd/dpgrun or any other tool reading the trace format.
//
// Usage:
//
//	tracegen -workload gcc -o gcc.dpg
//	tracegen -workload com -rounds 2000 -seed 7 -o com.dpg
//	tracegen -workload gcc -blocklen 4096 -o gcc.dpg   # 4096-event blocks
//	tracegen -workload gcc -compress flate -o gcc.dpg  # per-block compression
//	tracegen -asm prog.s -o prog.dpg          # inputs read as words from -in
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/asm"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

func main() {
	workload := flag.String("workload", "", "built-in workload name ("+fmt.Sprint(workloads.Names())+")")
	asmPath := flag.String("asm", "", "assembly source file to run instead of a built-in workload")
	rounds := flag.Int("rounds", 0, "rounds parameter (0 = workload default)")
	seed := flag.Uint64("seed", 1, "input seed for built-in workloads")
	inPath := flag.String("in", "", "input word file for -asm (one unsigned word per line)")
	limit := flag.Uint64("limit", workloads.MaxTraceLen, "instruction limit")
	blocklen := flag.Int("blocklen", 0, "events per trace block (0 = default byte-size blocks)")
	compress := flag.String("compress", "none", "per-block compression codec (none, flate); readers auto-detect")
	out := flag.String("o", "", "output trace path (required)")
	flag.Parse()

	if *out == "" {
		fail("missing -o output path")
	}
	codec, err := trace.ParseCodec(*compress)
	if err != nil {
		fail(err.Error())
	}

	var t *trace.Trace
	switch {
	case *workload != "" && *asmPath != "":
		fail("use either -workload or -asm, not both")
	case *workload != "":
		w, ok := workloads.ByName(*workload)
		if !ok {
			fail(fmt.Sprintf("unknown workload %q; known: %v", *workload, workloads.Names()))
		}
		r := *rounds
		if r == 0 {
			r = w.Rounds
		}
		var err error
		t, err = w.TraceRounds(r, *seed)
		if err != nil {
			fail(err.Error())
		}
	case *asmPath != "":
		src, err := os.ReadFile(*asmPath)
		if err != nil {
			fail(err.Error())
		}
		prog, err := asm.Assemble(*asmPath, string(src))
		if err != nil {
			fail(err.Error())
		}
		var input vm.InputSource
		if *inPath != "" {
			words, err := readWords(*inPath)
			if err != nil {
				fail(err.Error())
			}
			input = vm.SliceInput(words)
		}
		t, err = vm.Trace(prog, input, *limit)
		if err != nil {
			if _, isLimit := err.(vm.ErrLimit); !isLimit {
				fail(err.Error())
			}
			// The limit cut the run short; the partial trace is still
			// well-formed, so write it and say so.
			fmt.Fprintf(os.Stderr, "tracegen: warning: %v; writing the partial trace\n", err)
		}
	default:
		fail("missing -workload or -asm")
	}

	if err := trace.WriteFile(*out, t, trace.BlockEvents(*blocklen), trace.Compression(codec)); err != nil {
		fail(err.Error())
	}
	size := int64(-1)
	if fi, err := os.Stat(*out); err == nil {
		size = fi.Size()
	}
	fmt.Printf("wrote %s: %d dynamic instructions, %d static, %d bytes on disk (codec %s)\n",
		*out, t.Len(), t.NumStatic, size, codec)
}

func readWords(path string) ([]uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var words []uint32
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		var v uint64
		if _, err := fmt.Sscanf(line, "%v", &v); err != nil {
			return nil, fmt.Errorf("%s: bad input word %q", path, line)
		}
		words = append(words, uint32(v))
	}
	return words, sc.Err()
}

func fail(msg string) {
	fmt.Fprintln(os.Stderr, "tracegen:", msg)
	os.Exit(1)
}
