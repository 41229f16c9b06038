// The benchmark is a module of its own so that tier-1 (`go build ./... &&
// go test ./...` at the repo root) neither builds nor tests it; the replace
// directive and the afmm/ path prefix let it import the program's internal
// packages and measure them from outside.
module afmm/benchmark

go 1.22

require afmm v0.0.0

replace afmm => ../
