// Package scenfuzz fuzzes the simulator itself: a seeded generator
// composes random valid scenario.Specs — kernel x scale x team x
// machine speed/load traces x link scales x adapt schedules/policies x
// loop schedules x protocol — and runs each one under differential
// oracles that encode the paper's transparency claim:
//
//   - determinism: an identical spec produces a bit-identical Result
//     across GOMAXPROCS 1/4/16 and repeated runs;
//   - cross-protocol equivalence: Tmk and HLRC produce identical
//     program output (simulated times and traffic may differ, payload
//     results may not);
//   - transparency: an adaptive run (leave/join mid-execution) matches
//     the non-adaptive run's program output;
//   - reference: the parallel checksum equals the sequential
//     reference's, bit for bit;
//   - warm equals cold: the spec run in a scenario.Workspace that has
//     just run other specs encodes the bytes of its fresh run;
//   - no panics: race-free kernels never trip a word-race check or the
//     engine's deadlock diagnostic.
//
// On failure the harness delta-debugs the spec down to a minimal
// reproducer — dropping hosts, flattening traces, shrinking scale,
// stripping adapt events, reverting fields to defaults — and reports
// the minimal spec plus its content hash, so any finding becomes a
// one-line testdata regression.
//
// The harness is wired three ways: a native `go test -fuzz` target
// (FuzzScenario, corpus entries are canonical spec JSON), a
// deterministic batch mode (Batch; cmd/nowomp-fuzz exposes -seed and
// -count for CI), and the committed corpus under testdata/ replayed as
// ordinary regression tests. The dsm package's injected coherence
// mutations prove the oracles detect real bug classes and that the
// shrinker reduces a detection to a two-host reproducer.
package scenfuzz
