package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tinyOpts shrinks figure runs to smoke-test size.
func tinyOpts() Options {
	return Options{
		Scale:          0.005,
		ClientsPerNode: 2,
		Warmup:         100 * time.Millisecond,
		Duration:       250 * time.Millisecond,
		Seed:           5,
	}
}

func TestFigureWritersProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke tests are slow")
	}
	cases := []struct {
		name  string
		run   func(buf *bytes.Buffer) int
		want  string
		lines int // title, header, one row per data point
	}{
		{"Figure7", func(buf *bytes.Buffer) int { return len(Figure7(buf, tinyOpts())) }, "multipaxos-in", 2 + 4},
		{"Figure11b", func(buf *bytes.Buffer) int { return len(Figure11b(buf, tinyOpts())) }, "Mumbai", 2 + len(Figure11bConflicts)},
		// The line caesar-bench ends a figure with when its clients saw
		// failures: a stub result, no run, one line and no table under it.
		{"ReportFailed", func(buf *bytes.Buffer) int {
			return int(ReportFailed(buf, "7", []Result{{}, {Failed: 3}}))
		}, "figure 7: 3 client commands failed or timed out", 1},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			n := c.run(&buf)
			if n == 0 {
				t.Fatal("no results returned")
			}
			out := buf.String()
			if !strings.Contains(out, c.want) {
				t.Fatalf("output missing %q:\n%s", c.want, out)
			}
			// Every data row is fully populated: as many fields as the
			// header has columns.
			lines := strings.Split(strings.TrimSpace(out), "\n")
			if len(lines) != c.lines {
				t.Fatalf("%d lines, want %d:\n%s", len(lines), c.lines, out)
			}
			for _, row := range lines[1:] {
				if got, want := len(strings.Fields(row)), len(strings.Fields(lines[1])); got != want {
					t.Errorf("row %q has %d fields, the header %d", row, got, want)
				}
			}
		})
	}
}

func TestFigure10TableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure smoke tests are slow")
	}
	var buf bytes.Buffer
	o := tinyOpts()
	results := Figure10(&buf, o)
	if len(results) != 2*len(ConflictLevels) {
		t.Fatalf("Figure10 returned %d results", len(results))
	}
	if !strings.Contains(buf.String(), "EPaxos") || !strings.Contains(buf.String(), "Caesar") {
		t.Fatalf("table header missing:\n%s", buf.String())
	}
}
