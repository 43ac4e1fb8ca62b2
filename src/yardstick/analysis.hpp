// Test-suite analysis on top of coverage.
//
// The paper's closing §7.2 point: Yardstick lets engineers focus on "the
// creation of new tests that provably improve coverage — rather than on
// development of redundant tests that do little to find additional
// errors". This module operationalizes that:
//
//   * SuiteCoverageMatrix — the shared substrate: which rules each test
//     exercises when run in isolation, and what each run costs. Fractional
//     rule coverage of *any* subset of the suite is a pure function of this
//     matrix (see below), so the contributions below and the suite
//     optimizer (optimize.hpp) agree with each other and with the engine's
//     reported metric bit for bit.
//   * test_contributions — the leave-one-out view of the matrix: what each
//     test covers alone, what it adds on top of the rest of the suite
//     (marginal value), and which tests are redundant. Acting on it —
//     minimal subsets, run orders, probes for the gaps — is optimize.hpp.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nettest/test.hpp"
#include "yardstick/engine.hpp"

namespace yardstick::ys {

/// Per-test Algorithm-1 outcomes for one suite, reduced to the fractional
/// rule-coverage domain. The reduction is exact: Algorithm 1 is linear in
/// the trace (T_{A∪B}[r] = T_A[r] ∪ T_B[r] — intersection distributes over
/// the union of reported header sets, and a state-inspected rule
/// contributes M[r], which absorbs unions), and the fractional aggregator
/// only asks whether each rule's covered set is non-empty. So "which rules
/// does subset S cover" is the OR of the per-test rows, and coverage of S
/// is a pure function of that count — no further BDD work per subset.
struct SuiteCoverageMatrix {
  std::vector<std::string> names;  ///< test i's name
  /// Wall-clock (steady) seconds of test i's isolated run() only — trace
  /// bookkeeping and covered-set construction are analysis overhead, not
  /// part of the cost a prioritized suite would actually pay.
  std::vector<double> seconds;
  /// covers[i][r] != 0 iff test i's isolated covered set T_i[r] is
  /// non-empty (indexed by test, then RuleId).
  std::vector<std::vector<char>> covers;
  /// vacuous[r] != 0 iff step 1 reached rule r and its disjoint match set
  /// is empty (shadowed or unreachable); the fraction measure counts such
  /// rules as covered no matter what the suite does.
  std::vector<char> vacuous;
  size_t rule_count = 0;     ///< total rules (both tables, every device)
  size_t vacuous_count = 0;  ///< rules with vacuous[r] set
  /// True when a resource budget degraded any underlying computation; all
  /// covers[] rows are then lower bounds (missing rules read as uncovered).
  bool truncated = false;

  [[nodiscard]] size_t test_count() const { return names.size(); }

  /// Fractional rule coverage of a subset covering `covered_rules`
  /// non-vacuous rules — the same fold the fractional aggregator performs,
  /// so the double is bit-identical to the engine's.
  [[nodiscard]] double coverage_of(size_t covered_rules) const {
    if (rule_count == 0) return 1.0;
    return static_cast<double>(vacuous_count + covered_rules) /
           static_cast<double>(rule_count);
  }

  /// Number of non-vacuous rules covered by test i alone.
  [[nodiscard]] size_t covered_by(size_t i) const;
};

/// Runs every test of `suite` in isolation and reduces each run's covered
/// sets to the boolean rows above. Cost: n test runs + n covered-set
/// builds against `transfer.index()` — not O(n^2): every subset evaluation
/// downstream is pure integer work on the matrix.
///
/// Tests are the items of the clone-and-drain driver
/// (dataplane/clone_and_drain.hpp), which owns the worker policy and the
/// stop rule. The budget attached to the index's manager bounds the work:
/// the tests and covered-set builds charge it, and so do worker managers
/// (the index clone and every covered-set build in it), so a budgeted run
/// trips earlier at higher thread counts. The matrix rows are set-emptiness
/// facts about canonically-constructed BDDs, which no manager renumbering
/// can change — so the matrix, and everything derived from it, is
/// bit-identical at any thread count (`seconds` carries real wall-clock and
/// is exempt, which is why prioritization is excluded from golden
/// comparisons). Contract on the suite: at `threads` > 1 a test must derive
/// all symbolic state from the transfer it is handed (every test in
/// src/nettest does); a test closing over PacketSets bound to the caller's
/// manager requires `threads` == 1.
/// This is deliberately outside the incremental cache (DESIGN.md §11):
/// every per-test trace has a distinct content key, so caching would churn
/// the artifact without ever producing a warm hit.
///
/// A tripped budget surfaces as `truncated`, and every test that did not
/// complete keeps an all-zero row.
[[nodiscard]] SuiteCoverageMatrix build_suite_matrix(const dataplane::Transfer& transfer,
                                                     const nettest::TestSuite& suite,
                                                     unsigned threads = 1);

/// Keeps perfbench/layers.cpp compiling: it calls `(transfer, suite,
/// nullptr, threads)` and changes only with the benchmark. The third
/// argument can only be null; the budget is the manager's.
[[nodiscard]] inline SuiteCoverageMatrix build_suite_matrix(const dataplane::Transfer& transfer,
                                                            const nettest::TestSuite& suite,
                                                            std::nullptr_t, unsigned threads) {
  return build_suite_matrix(transfer, suite, threads);
}

struct TestContribution {
  std::string name;
  /// Fractional rule coverage of this test run by itself.
  double solo = 0.0;
  /// Coverage the full suite loses if this test is removed.
  double marginal = 0.0;
  /// True when no rule is covered by this test alone (marginal == 0).
  bool redundant = false;
  /// Wall-clock (steady) seconds spent running this test in isolation.
  double seconds = 0.0;
};

/// Per-test contributions, in suite order, folded from the matrix alone
/// (integer work, so bit-identical at any thread count the matrix was built
/// with). A truncated matrix's missing rules read as uncovered here too.
[[nodiscard]] std::vector<TestContribution> test_contributions(const SuiteCoverageMatrix& m);

}  // namespace yardstick::ys
