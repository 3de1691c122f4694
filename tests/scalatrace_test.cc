// ScalaTrace tests: lossless round trip on arbitrary streams, structural
// size bounds for iterative traces, nested-loop folding, and the in-place
// fold against an erase-and-insert reference.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pdsi/common/rng.h"
#include "pdsi/scalatrace/scalatrace.h"

namespace pdsi::scalatrace {
namespace {

using Node = CompressedTrace::Node;

// The reference fold: every run found is erased from the middle of the
// vector and a loop node inserted in its place, so the windows after it
// see the folded prefix. Compress must build exactly these nodes.
bool RefNodeEqual(const Node& a, const Node& b) {
  if (a.count != b.count || a.body.size() != b.body.size()) return false;
  if (a.body.empty()) return a.literal == b.literal;
  for (std::size_t i = 0; i < a.body.size(); ++i) {
    if (!RefNodeEqual(a.body[i], b.body[i])) return false;
  }
  return true;
}

bool RefFoldOnce(std::vector<Node>& nodes, std::size_t max_window) {
  bool changed = false;
  for (std::size_t w = 1; w <= max_window && w <= nodes.size() / 2; ++w) {
    for (std::size_t i = 0; i + 2 * w <= nodes.size(); ++i) {
      std::size_t repeats = 1;
      const auto windows_equal = [&](std::size_t a, std::size_t b) {
        for (std::size_t k = 0; k < w; ++k) {
          if (!RefNodeEqual(nodes[a + k], nodes[b + k])) return false;
        }
        return true;
      };
      while (i + (repeats + 1) * w <= nodes.size() && windows_equal(i, i + repeats * w)) {
        ++repeats;
      }
      if (repeats < 2) continue;
      Node loop;
      if (w == 1 && nodes[i].is_loop()) {
        loop = nodes[i];
        loop.count *= static_cast<std::uint32_t>(repeats);
      } else {
        loop.count = static_cast<std::uint32_t>(repeats);
        loop.body.assign(nodes.begin() + static_cast<long>(i),
                         nodes.begin() + static_cast<long>(i + w));
      }
      nodes.erase(nodes.begin() + static_cast<long>(i),
                  nodes.begin() + static_cast<long>(i + repeats * w));
      nodes.insert(nodes.begin() + static_cast<long>(i), std::move(loop));
      changed = true;
    }
  }
  return changed;
}

std::vector<Node> RefCompress(const std::vector<Event>& events, std::size_t max_window) {
  std::vector<Node> nodes;
  for (const Event& e : events) {
    Node n;
    n.literal = e;
    nodes.push_back(std::move(n));
  }
  while (RefFoldOnce(nodes, max_window)) {
  }
  return nodes;
}

// Node for node: literal, count and body, at every depth.
void ExpectSameNodes(const std::vector<Node>& got, const std::vector<Node>& want,
                     const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::string at = where + "/" + std::to_string(i);
    ASSERT_EQ(got[i].literal, want[i].literal) << at;
    ASSERT_EQ(got[i].count, want[i].count) << at;
    ExpectSameNodes(got[i].body, want[i].body, at);
  }
}

TEST(Compress, MatchesEraseInsertReferenceOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // Few kinds and args make accidental repeats; runs of a repeated
    // block plant loops of every window size.
    const std::uint64_t alphabet = 2 + rng.below(4);
    std::vector<Event> trace;
    const int n = 20 + static_cast<int>(rng.below(400));
    while (static_cast<int>(trace.size()) < n) {
      if (rng.chance(0.3)) {
        std::vector<Event> block(1 + rng.below(6));
        for (auto& e : block) e = {static_cast<Event::Kind>(rng.below(alphabet)), rng.below(2)};
        for (std::uint64_t r = 2 + rng.below(5); r > 0; --r) {
          trace.insert(trace.end(), block.begin(), block.end());
        }
      } else {
        trace.push_back({static_cast<Event::Kind>(rng.below(alphabet)), rng.below(3)});
      }
    }
    for (const std::size_t max_window : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
      const auto compressed = Compress(trace, max_window);
      ExpectSameNodes(compressed.nodes, RefCompress(trace, max_window),
                      "seed " + std::to_string(seed) + " w " + std::to_string(max_window));
      EXPECT_EQ(compressed.expand(), trace) << "seed " << seed;
    }
  }
}

TEST(Compress, MatchesEraseInsertReferenceOnNestedLoops) {
  std::vector<std::vector<Event>> traces = {
      SyntheticAppTrace(50, 8, 10), SyntheticAppTrace(37, 3, 4),
      SyntheticAppTrace(12, 1, 0), SyntheticAppTrace(200, 2, 7)};
  // ((A^3 B)^4 C)^5 D, then its own repeat with a different tail.
  std::vector<Event> nested;
  for (int rep = 0; rep < 2; ++rep) {
    for (int o = 0; o < 5; ++o) {
      for (int m = 0; m < 4; ++m) {
        for (int k = 0; k < 3; ++k) nested.push_back({Event::Kind::read, 7});
        nested.push_back({Event::Kind::barrier, 0});
      }
      nested.push_back({Event::Kind::write, 9});
    }
    nested.push_back({Event::Kind::seek, static_cast<std::uint64_t>(rep)});
  }
  traces.push_back(nested);
  for (std::size_t t = 0; t < traces.size(); ++t) {
    const auto compressed = Compress(traces[t]);
    ExpectSameNodes(compressed.nodes, RefCompress(traces[t], 64), "trace " + std::to_string(t));
    EXPECT_EQ(compressed.expand(), traces[t]) << "trace " << t;
  }
}

TEST(Compress, RoundTripIsLossless) {
  auto trace = SyntheticAppTrace(50, 8, 10);
  auto compressed = Compress(trace);
  EXPECT_EQ(compressed.expand(), trace);
  EXPECT_EQ(compressed.event_count(), trace.size());
}

TEST(Compress, RandomStreamsRoundTrip) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Event> trace;
    const int n = 50 + static_cast<int>(rng.below(300));
    for (int i = 0; i < n; ++i) {
      Event e;
      e.kind = static_cast<Event::Kind>(rng.below(7));
      e.arg = rng.below(4);  // small arg space => accidental repeats
      trace.push_back(e);
    }
    auto compressed = Compress(trace);
    EXPECT_EQ(compressed.expand(), trace) << "trial " << trial;
  }
}

TEST(Compress, IterativeTraceSizeIsNearConstant) {
  // The ScalaTrace claim: trace size describes the *pattern*, not the
  // run length. 10x the timesteps must not grow the structure.
  const auto small = Compress(SyntheticAppTrace(100, 8, 10));
  const auto large = Compress(SyntheticAppTrace(1000, 8, 10));
  EXPECT_EQ(large.event_count(), Compress(SyntheticAppTrace(1000, 8, 10)).event_count());
  EXPECT_LE(large.node_count(), small.node_count() + 4);
  // And both are tiny next to the raw stream.
  EXPECT_LT(large.node_count() * 20, large.event_count());
}

TEST(Compress, FoldsSimpleRun) {
  std::vector<Event> trace(100, {Event::Kind::compute, 1});
  auto compressed = Compress(trace);
  ASSERT_EQ(compressed.nodes.size(), 1u);
  EXPECT_TRUE(compressed.nodes[0].is_loop());
  EXPECT_EQ(compressed.expand(), trace);
}

TEST(Compress, FoldsNestedLoops) {
  // (A A A B) x 8 should become one loop of [loop(A,3), B].
  std::vector<Event> trace;
  for (int outer = 0; outer < 8; ++outer) {
    for (int inner = 0; inner < 3; ++inner) trace.push_back({Event::Kind::read, 7});
    trace.push_back({Event::Kind::barrier, 0});
  }
  auto compressed = Compress(trace);
  EXPECT_EQ(compressed.expand(), trace);
  EXPECT_LE(compressed.node_count(), 4u);
}

TEST(Compress, NoFalseFolding) {
  // Strictly aperiodic stream must stay literal.
  std::vector<Event> trace;
  for (std::uint64_t i = 0; i < 40; ++i) trace.push_back({Event::Kind::write, i});
  auto compressed = Compress(trace);
  EXPECT_EQ(compressed.nodes.size(), 40u);
  EXPECT_EQ(compressed.expand(), trace);
}

TEST(Replay, ActionSeesEventsInOrder) {
  auto trace = SyntheticAppTrace(5, 2, 2);
  auto compressed = Compress(trace);
  std::vector<Event> seen;
  compressed.replay([&](const Event& e) { seen.push_back(e); });
  EXPECT_EQ(seen, trace);
}

}  // namespace
}  // namespace pdsi::scalatrace
