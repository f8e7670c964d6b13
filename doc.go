// Package sqlml is a from-scratch Go reproduction of "A Generic Solution
// to Integrate SQL and Analytics for Big Data" (EDBT 2015): an MPP SQL
// engine with In-SQL transformation UDFs, a distributed ML engine ingesting
// through Hadoop-style InputFormats, a coordinator-mediated parallel
// streaming transfer between them, and the transformation-result caching
// the paper evaluates.
//
// The public surface lives in the internal packages (this module is a
// research artifact, not a semver-stable library); see README.md for the
// architecture map and examples/ for runnable entry points. The root
// package holds no code: cmd/bench regenerates every table and figure of
// the paper's evaluation in simulated time, and benchmark/ measures wall
// clock, CPU and allocations.
package sqlml
