#include "yardstick/analysis.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "coverage/covered_sets.hpp"
#include "dataplane/match_sets.hpp"
#include "obs/trace.hpp"
#include "yardstick/tracker.hpp"

namespace yardstick::ys {

namespace {

/// One isolated test evaluation against `index`: timed run, covered-set
/// build, reduction to a boolean row. Shared by the serial and the
/// per-worker parallel paths — the row only records set emptiness, so it
/// is identical whichever manager `index` lives in. Returns true when the
/// covered-set build was budget-truncated (the caller owns m.truncated;
/// workers write only their own i-th slots of seconds/covers).
[[nodiscard]] bool evaluate_test(const dataplane::MatchSetIndex& index,
                                 const dataplane::Transfer& transfer,
                                 const nettest::NetworkTest& test,
                                 const ResourceBudget* budget, unsigned build_threads,
                                 SuiteCoverageMatrix& m, size_t i) {
  CoverageTracker tracker;
  // Time the isolated run only: trace bookkeeping and the covered-set
  // build below are analysis overhead, not test cost.
  const auto test_start = ResourceBudget::Clock::now();
  (void)test.run(transfer, tracker);
  m.seconds[i] =
      std::chrono::duration<double>(ResourceBudget::Clock::now() - test_start).count();
  const coverage::CoveredSets covered(index, tracker.trace(), budget, build_threads);
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
                                       const nettest::TestSuite& suite,
                                       const ResourceBudget* budget,
                                       unsigned threads) {
  const size_t n = suite.size();
  obs::Span span("analysis.suite_matrix", "analysis");
  span.arg("tests", n);
  span.arg("threads", threads);

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
    if (index.match_set(net::RuleId{static_cast<uint32_t>(r)}).empty()) {
      m.vacuous[r] = 1;
      ++m.vacuous_count;
    }
  }

  for (size_t i = 0; i < n; ++i) m.names[i] = suite.test(i).name();

  const unsigned resolved =
      threads == 0 ? std::max(1u, std::thread::hardware_concurrency()) : threads;
  const size_t workers = std::min<size_t>(resolved, n);
  if (workers <= 1) {
    try {
      for (size_t i = 0; i < n; ++i) {
        if (evaluate_test(index, transfer, suite.test(i), budget, threads, m, i)) {
          m.truncated = true;
        }
      }
    } catch (const StatusError& e) {
      // A budget tripping outside the degradable covered-set builds (e.g.
      // while running a test) leaves the rows computed so far; never-built
      // rows stay all-zero (coverage under-reported, flagged truncated).
      if (!is_resource_exhaustion(e.code())) throw;
      m.truncated = true;
    }
  } else {
    // Whole-test sharding: each worker owns a private manager, match-set
    // index and transfer, and pulls tests off a shared counter. Rows are
    // emptiness facts about canonical sets, so they do not depend on which
    // worker (or manager) computed them — the serial and parallel paths
    // agree bit for bit.
    std::atomic<size_t> next{0};
    std::atomic<bool> truncated{false};
    std::mutex error_mu;
    std::exception_ptr first_error;
    auto work = [&] {
      try {
        bdd::BddManager worker_mgr(packet::kNumHeaderBits);
        const dataplane::MatchSetIndex worker_index(worker_mgr, network, budget);
        const dataplane::Transfer worker_transfer(worker_index);
        if (worker_index.truncated()) truncated.store(true, std::memory_order_relaxed);
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          try {
            if (evaluate_test(worker_index, worker_transfer, suite.test(i), budget, 1,
                              m, i)) {
              truncated.store(true, std::memory_order_relaxed);
            }
          } catch (const StatusError& e) {
            if (!is_resource_exhaustion(e.code())) throw;
            truncated.store(true, std::memory_order_relaxed);
          }
        }
      } catch (const StatusError& e) {
        if (is_resource_exhaustion(e.code())) {
          truncated.store(true, std::memory_order_relaxed);
        } else {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      } catch (...) {
        // First non-budget failure wins; remaining tests of this worker
        // are abandoned (their rows backfill to zero below).
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
    if (truncated.load(std::memory_order_relaxed)) m.truncated = true;
  }
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
