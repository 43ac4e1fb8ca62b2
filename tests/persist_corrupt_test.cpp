// Hostile-input tests for trace persistence: a corpus of truncated,
// corrupted and adversarial trace files, each asserting the *specific*
// typed error (CorruptTraceError + Detail) the hardened reader raises.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "yardstick/persist.hpp"

namespace yardstick::ys {
namespace {

using Detail = CorruptTraceError::Detail;
using packet::Ipv4Prefix;
using packet::PacketSet;
using testutil::make_tiny;
using testutil::TinyNetwork;

struct CorpusEntry {
  std::string name;
  std::string text;
  Detail expected;
};

class PersistCorruptTest : public ::testing::Test {
 protected:
  PersistCorruptTest() : tiny_(make_tiny()) {
    coverage::CoverageTrace trace;
    trace.mark_packet(net::to_location(tiny_.l1_host),
                      PacketSet::dst_prefix(mgr_, tiny_.p1));
    trace.mark_rule(tiny_.sp_to_p1);
    valid_ = serialize_trace(trace, mgr_);
  }

  /// A copy of the valid v2 file with one mutation applied.
  [[nodiscard]] std::string tampered(size_t pos, char c) const {
    std::string out = valid_;
    out[pos] = c;
    return out;
  }

  [[nodiscard]] std::vector<CorpusEntry> corpus() const {
    const size_t trailer = valid_.rfind("\nchecksum ");
    std::vector<CorpusEntry> out;
    // -- inputs that ran out (partial write, interrupted transfer) --
    out.push_back({"empty file", "", Detail::Truncated});
    out.push_back({"header only", "yardstick-trace v1\n", Detail::Truncated});
    out.push_back(
        {"v1 cut mid-nodes", "yardstick-trace v1\nnodes 2\n0 0 1\n", Detail::Truncated});
    out.push_back({"v1 cut mid-rules",
                   "yardstick-trace v1\nnodes 0\nrules 5\n1 2\n", Detail::Truncated});
    out.push_back({"v2 missing trailer", valid_.substr(0, trailer + 1),
                   Detail::Truncated});
    out.push_back({"v2 cut mid-nodes", valid_.substr(0, valid_.size() / 2),
                   Detail::Truncated});
    // -- inputs whose bytes are present but wrong (bit rot, tampering) --
    out.push_back({"garbage header", "not a trace at all\n", Detail::Corrupted});
    out.push_back({"v2 flipped payload byte", tampered(trailer / 2, '~'),
                   Detail::Corrupted});
    out.push_back({"v2 flipped checksum digit",
                   tampered(valid_.size() - 2, valid_[valid_.size() - 2] == '0' ? '1' : '0'),
                   Detail::Corrupted});
    out.push_back({"v2 garbage after trailer", valid_ + "extra\n", Detail::Corrupted});
    out.push_back({"non-numeric node field",
                   "yardstick-trace v1\nnodes 1\nx 0 1\nrules 0\nlocations 0\n",
                   Detail::Corrupted});
    out.push_back({"reserve bomb count",
                   "yardstick-trace v1\nnodes 99999999\n", Detail::Corrupted});
    out.push_back({"value over 32 bits",
                   "yardstick-trace v1\nnodes 0\nrules 1\n99999999999\nlocations 0\n",
                   Detail::Corrupted});
    out.push_back({"forward node reference",
                   "yardstick-trace v1\nnodes 1\n0 5 5\nrules 0\nlocations 0\n",
                   Detail::Corrupted});
    out.push_back({"variable out of range",
                   "yardstick-trace v1\nnodes 1\n999 0 1\nrules 0\nlocations 0\n",
                   Detail::Corrupted});
    out.push_back({"variable-ordering violation",
                   "yardstick-trace v1\nnodes 2\n3 0 1\n5 2 1\nrules 0\nlocations 0\n",
                   Detail::Corrupted});
    out.push_back({"location over 32 bits (would wrap to 7)",
                   "yardstick-trace v1\nnodes 0\nrules 0\nlocations 1\n4294967303 1\n",
                   Detail::Corrupted});
    out.push_back({"location far over 32 bits",
                   "yardstick-trace v1\nnodes 0\nrules 0\nlocations 1\n99999999999 1\n",
                   Detail::Corrupted});
    out.push_back({"bad location root",
                   "yardstick-trace v1\nnodes 0\nrules 0\nlocations 1\n7 9\n",
                   Detail::Corrupted});
    out.push_back({"wrong section keyword",
                   "yardstick-trace v1\nnodes 0\nrule 0\nlocations 0\n",
                   Detail::Corrupted});
    return out;
  }

  bdd::BddManager mgr_{packet::kNumHeaderBits};
  TinyNetwork tiny_;
  std::string valid_;
};

TEST_F(PersistCorruptTest, ValidV2RoundTrips) {
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  const coverage::CoverageTrace loaded = deserialize_trace(valid_, mgr2);
  EXPECT_EQ(loaded.marked_rules().size(), 1u);
  EXPECT_EQ(loaded.marked_packets().location_count(), 1u);
}

TEST_F(PersistCorruptTest, EveryCorpusEntryRaisesItsTypedError) {
  for (const CorpusEntry& entry : corpus()) {
    bdd::BddManager mgr2(packet::kNumHeaderBits);
    try {
      (void)deserialize_trace(entry.text, mgr2);
      FAIL() << "accepted corrupt input: " << entry.name;
    } catch (const CorruptTraceError& e) {
      EXPECT_EQ(e.code(), Error::CorruptTrace) << entry.name;
      EXPECT_EQ(e.detail(), entry.expected)
          << entry.name << " — message: " << e.what();
    } catch (const std::exception& e) {
      FAIL() << entry.name << " threw an untyped " << e.what();
    }
  }
}

TEST_F(PersistCorruptTest, CorpusFilesRaiseTypedErrorsThroughLoadTrace) {
  // The acceptance-criteria loop: every corpus entry written to disk and
  // loaded through the file API must raise CorruptTraceError (never a
  // crash, hang, or silent partial trace), with the path in the context.
  size_t index = 0;
  for (const CorpusEntry& entry : corpus()) {
    const std::string path =
        ::testing::TempDir() + "/corrupt_" + std::to_string(index++) + ".trace";
    {
      std::ofstream out(path, std::ios::binary);
      out << entry.text;
    }
    bdd::BddManager mgr2(packet::kNumHeaderBits);
    try {
      (void)load_trace(path, mgr2);
      FAIL() << "accepted corrupt file: " << entry.name;
    } catch (const CorruptTraceError& e) {
      EXPECT_EQ(e.detail(), entry.expected) << entry.name;
      EXPECT_EQ(e.context().source, path) << entry.name;
    }
    std::remove(path.c_str());
  }
}

TEST_F(PersistCorruptTest, TruncationIsDetectedAtEveryPrefixLength) {
  // Chop the valid file at every length: the reader must always throw
  // (a proper prefix of a checksummed file is never valid — except the one
  // missing only the final newline, which still checksums) and classify
  // the cut as Truncated whenever the trailer is gone.
  for (size_t len = 0; len + 1 < valid_.size(); len += 7) {
    bdd::BddManager mgr2(packet::kNumHeaderBits);
    EXPECT_THROW((void)deserialize_trace(valid_.substr(0, len), mgr2),
                 CorruptTraceError)
        << "prefix length " << len;
  }
}

TEST_F(PersistCorruptTest, LegacyV1StillLoads) {
  // A v1 file (no trailer) assembled by hand keeps loading for
  // compatibility with archived traces.
  const std::string v1 =
      "yardstick-trace v1\nnodes 1\n0 0 1\nrules 1\n3\nlocations 1\n5 2\n";
  bdd::BddManager mgr2(packet::kNumHeaderBits);
  const coverage::CoverageTrace loaded = deserialize_trace(v1, mgr2);
  EXPECT_EQ(loaded.marked_rules().count(net::RuleId{3}), 1u);
  EXPECT_EQ(loaded.marked_packets().location_count(), 1u);
}

}  // namespace
}  // namespace yardstick::ys
