// Package bench regenerates every table and figure of the paper's
// evaluation (§VII) from the accelerator models: one runner per experiment,
// each returning a structured Table that renders as ASCII and carries the
// raw series for tests to assert against. EXPERIMENTS.md records the
// paper-vs-measured comparison for each.
//
// # Concurrency
//
// The package is built around a concurrent sweep engine with a determinism
// guarantee: parallel runs produce byte-identical exports to serial runs.
//
//   - Runner fans experiments — and, through the Suite's shared pool, the
//     sweep points inside each experiment — across a bounded par.Pool
//     and reassembles results in input order (result i is experiment i,
//     whatever order workers finish in).
//   - Suite is safe for concurrent use; its caches are par.Memos, so
//     concurrent requests for one cell share a single simulation. Configure MACs / Models / Datasets before sharing.
//   - Generators separate the parallel fan-out (indexed writes into
//     pre-sized slices) from the serial fold (fixed iteration order,
//     accelOrder for per-accelerator float accumulation), so floating-point
//     summation order — and therefore every exported digit — is independent
//     of scheduling. TestDeterminism enforces this end to end.
//
// Accelerator models themselves are stateless per Run (the
// arch.Accelerator contract), which is what lets the engine fan them out.
package bench

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render formats the table as aligned ASCII.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f0(v float64) string  { return fmt.Sprintf("%.0f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
