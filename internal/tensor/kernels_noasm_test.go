//go:build !amd64 || race

package tensor

import "testing"

// benchKernel times the production path, which here is the portable loops.
func benchKernel(b *testing.B, bytes int64, run, _ func()) { runKernel(b, bytes, run) }
