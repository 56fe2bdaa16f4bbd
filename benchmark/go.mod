// The benchmark is a module of its own, nested in the one it measures: its
// import path keeps the proxygraph/ prefix, which is what lets it import the
// repository's internal packages.
module proxygraph/benchmark

go 1.24

require proxygraph v0.0.0

replace proxygraph => ../
