package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestQuickSmoke runs every workload at 5% size with 3 s windows, untraced
// and traced, through the same entry point as the command, and checks the
// result line: every declared metric with its unit, nothing undeclared,
// and no failed operation.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the programs and runs every workload")
	}
	root := repoRoot(t)
	c, err := loadContract(root)
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for _, w := range c.workloadNames() {
		for _, traced := range []string{"0", "1"} {
			t.Run(w+"/trace="+traced, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"-repo", root, "-bin", bin, "-quick", "-workload", w, "-seed", "3", "-trace", traced}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
				}
				lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
				var res line
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatalf("last line is not the JSON result: %v\n%s", err, stdout.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct %v, %d of %d operations failed\n%s", res.Correct, res.Failed, res.Attempted, stdout.String())
				}
				if err := c.checkEmitted(res.Metrics, traced == "1"); err != nil {
					t.Error(err)
				}
			})
		}
	}
}
