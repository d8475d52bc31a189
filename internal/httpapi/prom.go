package httpapi

import (
	"fmt"
	"io"
)

// Header writes the HELP and TYPE lines that open a metric family in the
// Prometheus text exposition format; labelled samples follow it.
func Header(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Counter writes one unlabelled counter with its HELP and TYPE lines.
func Counter(w io.Writer, name, help string, v int64) {
	Header(w, name, "counter", help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// Gauge writes one unlabelled gauge with its HELP and TYPE lines. Integers
// print as %d, floats as %g.
func Gauge[T int | int64 | float64](w io.Writer, name, help string, v T) {
	Header(w, name, "gauge", help)
	fmt.Fprintf(w, "%s %v\n", name, v)
}
