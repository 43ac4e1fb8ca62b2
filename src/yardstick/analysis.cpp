#include "yardstick/analysis.hpp"

#include <chrono>

#include "coverage/covered_sets.hpp"
#include "dataplane/clone_and_drain.hpp"
#include "dataplane/match_sets.hpp"
#include "obs/trace.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {

namespace {

/// What one test evaluation reads: a transfer over the engine's index or
/// over a worker's clone of it.
struct MatrixInputs {
  const dataplane::Transfer& transfer;
};

/// A worker's private copy of the engine's index (dataplane/clone_and_drain.hpp).
struct MatrixClone {
  MatrixClone(bdd::BddManager& mgr, const MatrixInputs& from)
      : index(mgr, from.transfer.index()), transfer(index) {}
  [[nodiscard]] MatrixInputs inputs() const { return {transfer}; }

  dataplane::MatchSetIndex index;
  dataplane::Transfer transfer;
};

/// One isolated test evaluation: timed run, covered-set build, reduction to
/// a boolean row. The row only records set emptiness, so it is identical
/// whichever manager the transfer's index lives in. Writes only the i-th
/// slots of seconds/covers; returns true when the covered-set build was
/// budget-truncated.
[[nodiscard]] bool evaluate_test(const MatrixInputs& in, const nettest::NetworkTest& test,
                                 SuiteCoverageMatrix& m, size_t i) {
  CoverageTracker tracker;
  // Time the run and the fold of its reports, which is the test's
  // tracking cost; the covered-set build below is analysis overhead.
  const auto test_start = ResourceBudget::Clock::now();
  (void)test.run(in.transfer, tracker);
  const coverage::CoverageTrace& trace = tracker.trace();
  m.seconds[i] =
      std::chrono::duration<double>(ResourceBudget::Clock::now() - test_start).count();
  const coverage::CoveredSets covered(in.transfer.index(), trace);
  std::vector<char> row(m.rule_count, 0);
  for (size_t r = 0; r < m.rule_count; ++r) {
    if (m.vacuous[r]) continue;
    // Covered sets are subsets of the disjoint match sets, so
    // non-emptiness is exactly the fraction measure's |T ∩ M| > 0.
    if (!covered.covered(net::RuleId{static_cast<uint32_t>(r)}).empty()) {
      row[r] = 1;
    }
  }
  m.covers[i] = std::move(row);
  return covered.truncated();
}

}  // namespace

size_t SuiteCoverageMatrix::covered_by(size_t i) const {
  const std::vector<char>& row = covers[i];
  size_t count = 0;
  for (const char c : row) count += (c != 0);
  return count;
}

SuiteCoverageMatrix build_suite_matrix(const dataplane::Transfer& transfer,
                                       const nettest::TestSuite& suite, unsigned threads) {
  const size_t n = suite.size();
  obs::Span span("analysis.suite_matrix", "analysis");
  span.arg("tests", n);

  const dataplane::MatchSetIndex& index = transfer.index();
  const net::Network& network = index.network();

  SuiteCoverageMatrix m;
  m.rule_count = network.rule_count();
  m.truncated = index.truncated();
  m.names.resize(n);
  m.seconds.resize(n, 0.0);
  m.covers.resize(n);
  m.vacuous.assign(m.rule_count, 0);
  for (size_t r = 0; r < m.rule_count; ++r) {
    // A rule a capped step 1 never reached has an empty match set too, but
    // it is unmeasured, not vacuous: it stays uncovered, so the matrix
    // stays a lower bound (as in the engine's measure table).
    const net::RuleId rid{static_cast<uint32_t>(r)};
    if (index.reached(rid) && index.match_set(rid).empty()) {
      m.vacuous[r] = 1;
      ++m.vacuous_count;
    }
  }

  for (size_t i = 0; i < n; ++i) m.names[i] = suite.test(i).name();

  // Tests are the clone-and-drain driver's items. A test the stop rule
  // skipped, or whose run tripped the budget, keeps an all-zero row below.
  const dataplane::DrainResult drain = dataplane::clone_and_drain<MatrixClone>(
      index.manager(), MatrixInputs{transfer}, n, threads, [] { return false; },
      [&](const MatrixInputs& in, size_t i) { return evaluate_test(in, suite.test(i), m, i); });
  span.arg("workers", drain.workers);
  m.truncated = m.truncated || drain.truncated;
  for (std::vector<char>& row : m.covers) {
    if (row.empty()) row.assign(m.rule_count, 0);
  }
  return m;
}

std::vector<TestContribution> test_contributions(const SuiteCoverageMatrix& m) {
  // Per-rule cover multiplicity across the whole suite: leaving test i out
  // loses rule r exactly when cover_count[r] == 1 and covers[i][r] is set.
  std::vector<uint32_t> cover_count(m.rule_count, 0);
  for (const std::vector<char>& row : m.covers) {
    for (size_t r = 0; r < m.rule_count; ++r) cover_count[r] += (row[r] != 0);
  }
  size_t full_covered = 0;
  for (const uint32_t c : cover_count) full_covered += (c > 0);
  const double full = m.coverage_of(full_covered);

  std::vector<TestContribution> out(m.test_count());
  for (size_t i = 0; i < out.size(); ++i) {
    size_t sole = 0;  // rules only test i covers
    for (size_t r = 0; r < m.rule_count; ++r) {
      sole += (m.covers[i][r] != 0 && cover_count[r] == 1);
    }
    // coverage_of is monotone in its count, so the marginal is never negative.
    out[i] = {m.names[i], m.coverage_of(m.covered_by(i)),
              full - m.coverage_of(full_covered - sole), sole == 0, m.seconds[i]};
  }
  return out;
}

}  // namespace yardstick::ys
