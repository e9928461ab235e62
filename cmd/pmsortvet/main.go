// Command pmsortvet is the repo's invariant checker: a go vet-style
// multichecker enforcing the contracts the compiler cannot see —
// payload ownership after Send (sendfreeze), wire registration
// coverage (wirereg), message-tag namespaces (tagrange), zero-cost
// tracing call sites (obscost). See DESIGN.md §14.
//
// Usage:
//
//	go run ./cmd/pmsortvet ./...
//	go run ./cmd/pmsortvet -only tagrange ./internal/coll
package main

import (
	"os"

	"pmsort/internal/analysis/vetsuite"
)

func main() {
	os.Exit(vetsuite.Main(os.Args[1:], os.Stdout, os.Stderr))
}
