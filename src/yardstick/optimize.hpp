// Suite optimization — acting on the coverage metrics (§7.2).
//
// test_contributions (analysis.hpp) reports which tests are redundant; this
// module closes the loop and *does* something with that knowledge:
//
//   * minimize_suite — smallest test subset preserving full-suite
//     fractional rule coverage (exact greedy set cover over the suite's
//     coverage matrix), with a slack knob for "95% of the coverage in a
//     fraction of the tests".
//   * prioritize_suite — cost-aware ordering: run the suite in
//     marginal-coverage-per-second order and emit the cumulative
//     coverage/cost curve, so a time-boxed run buys the most coverage.
//   * build_gap_report — an exhaustive, operator-actionable inventory of
//     every uncovered rule: grouped by device, annotated with the §13
//     content key (byte-identical shadowed twins collapse into one entry),
//     and carrying a concrete witness packet sampled from the rule's
//     exercisable space — or a state-only marker when no packet can reach
//     the rule and only state inspection will cover it.
//
// Determinism contracts (DESIGN.md §14): minimization and the gap report
// are bit-identical at any thread count — both derive from canonical BDDs
// whose construction obeys the §8 merge contract. Prioritization depends
// on measured wall-clock seconds and is deterministic only given the
// matrix (i.e. its *tie-breaking* is deterministic, its input times are
// not).
#pragma once

#include <string>
#include <vector>

#include "yardstick/analysis.hpp"

namespace yardstick::ys {

/// One test retained by minimize_suite, in greedy selection order.
struct SelectedTest {
  size_t index = 0;  ///< position in the original suite
  std::string name;
  size_t added_rules = 0;  ///< non-vacuous rules newly covered at this step
  double cumulative_coverage = 0.0;
};

struct MinimizeResult {
  /// Retained tests in selection order (highest gain first; ties broken
  /// by test name, then suite position).
  std::vector<SelectedTest> selected;
  size_t suite_size = 0;
  /// The slack knob: minimum fraction of the *full suite's* coverage the
  /// subset must preserve. 1.0 (default) demands exact preservation —
  /// the subset's covered-rule set then equals the full suite's, so a
  /// recomputed coverage report is bit-identical, not just close.
  double min_coverage = 1.0;
  double full_coverage = 0.0;      ///< fractional rule coverage, whole suite
  double achieved_coverage = 0.0;  ///< fractional rule coverage, subset
  /// Optionally filled by callers that re-run the subset through a fresh
  /// CoverageEngine as an end-to-end cross-check (CLI, bench); < 0 when
  /// not recomputed.
  double recomputed_full = -1.0;
  double recomputed_subset = -1.0;
  bool truncated = false;

  [[nodiscard]] bool contains(size_t index) const;
  /// Names of the dropped tests, in suite order.
  [[nodiscard]] std::vector<std::string> dropped(
      const SuiteCoverageMatrix& m) const;
  [[nodiscard]] std::string to_text(const SuiteCoverageMatrix& m) const;
};

/// Greedy set cover over the matrix: repeatedly take the test covering the
/// most not-yet-covered non-vacuous rules (ties: lexicographically
/// smallest name, then lowest index) until the subset's coverage reaches
/// `min_coverage` × the full suite's. Greedy selection *order* does not
/// depend on the target, so a looser knob always yields a prefix of a
/// stricter knob's selection (subset sizes are monotone in min_coverage).
[[nodiscard]] MinimizeResult minimize_suite(const SuiteCoverageMatrix& m,
                                            double min_coverage = 1.0);

/// One scheduled test in a prioritized suite.
struct PrioritizedTest {
  size_t index = 0;
  std::string name;
  double marginal = 0.0;  ///< coverage gained when this test runs
  double seconds = 0.0;   ///< isolated run cost
  double cumulative_coverage = 0.0;
  double cumulative_seconds = 0.0;
};

struct PrioritizeResult {
  /// Every test of the suite, best marginal-coverage-per-second first —
  /// the cumulative fields trace the coverage/cost curve.
  std::vector<PrioritizedTest> order;
  double full_coverage = 0.0;
  bool truncated = false;

  [[nodiscard]] std::string to_text() const;
};

/// Cost-aware greedy: at each step schedule the test maximizing newly
/// covered rules per second (compared exactly via cross-multiplication, so
/// zero-cost tests sort first and an all-zero-cost suite degrades to pure
/// coverage greedy). Ties: more rules, then name, then index.
[[nodiscard]] PrioritizeResult prioritize_suite(const SuiteCoverageMatrix& m);

/// One uncovered rule, with a concrete way to cover it.
struct GapWitness {
  net::RuleId rule;
  net::RouteKind kind = net::RouteKind::Other;
  net::TableKind table = net::TableKind::Fib;
  /// §13 content key (device|table|priority|match|kind).
  std::string content_key;
  /// How many rules of the device share this content key — byte-identical
  /// twins are shadowed (vacuous), so this witness stands for all of them.
  size_t collapsed = 1;
  /// True when the rule's exercisable space is empty (fully shadowed by
  /// the ACL stage): no injected packet can reach it, only a
  /// state-inspection test covers it. `witness` is then meaningless.
  bool state_only = false;
  packet::ConcretePacket witness;
};

struct DeviceGaps {
  net::DeviceId device;
  std::string name;
  size_t rule_count = 0;  ///< rules of this device across both tables
  std::vector<GapWitness> gaps;
};

struct GapReport {
  /// Devices with at least one gap, in network order.
  std::vector<DeviceGaps> devices;
  size_t uncovered_rules = 0;
  size_t packet_witnesses = 0;
  size_t state_only = 0;
  bool truncated = false;

  [[nodiscard]] std::string to_text() const;
};

/// Every uncovered rule (optionally device-filtered), in untested_rules()
/// order, gets an entry — a sampled witness packet from its exercisable
/// space (disjoint match set, ACL-clipped for FIB rules) or a state-only
/// marker. Witnesses are sampled from canonical BDDs in the engine's
/// primary manager, so the report is bit-identical at any engine thread
/// count, and cache-prefilled match sets give the same witnesses. The
/// CLI's `--suggest N` prints its first N packet witnesses as probes.
[[nodiscard]] GapReport build_gap_report(const CoverageEngine& engine,
                                         const DeviceFilter& filter = nullptr);

/// JSON for the `optimize` subcommand: one object with a section per
/// non-null result. Timing fields carry real seconds; CI diffs normalize
/// them away (prioritization order itself is timing-dependent and is kept
/// out of golden comparisons).
[[nodiscard]] std::string optimize_to_json(const SuiteCoverageMatrix& m,
                                           const MinimizeResult* minimize,
                                           const PrioritizeResult* prioritize,
                                           const GapReport* gaps);

}  // namespace yardstick::ys
