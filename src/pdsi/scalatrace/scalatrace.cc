#include "pdsi/scalatrace/scalatrace.h"

#include <algorithm>
#include <iterator>

namespace pdsi::scalatrace {

namespace {

using Node = CompressedTrace::Node;

bool NodeEqual(const Node& a, const Node& b) {
  if (a.count != b.count || a.body.size() != b.body.size()) return false;
  if (a.body.empty()) return a.literal == b.literal;
  for (std::size_t i = 0; i < a.body.size(); ++i) {
    if (!NodeEqual(a.body[i], b.body[i])) return false;
  }
  return true;
}

bool WindowsEqual(const std::vector<Node>& nodes, std::size_t a, std::size_t b,
                  std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    if (!NodeEqual(nodes[a + i], nodes[b + i])) return false;
  }
  return true;
}

/// One folding pass: applies every non-overlapping fold it finds at each
/// window size, smallest window first. Returns true if anything changed.
///
/// Each window size compacts the vector in place: nodes [0, out) are the
/// finished prefix and [in, end) the unscanned tail, so the windows read
/// exactly what an erase-and-insert fold would have left behind the
/// fold point. `out` never passes `in`, and a fold moves its body out of
/// the tail before its loop node is written.
bool FoldOnce(std::vector<Node>& nodes, std::size_t max_window) {
  bool changed = false;
  for (std::size_t w = 1; w <= max_window && w <= nodes.size() / 2; ++w) {
    const std::size_t end = nodes.size();
    std::size_t out = 0;
    std::size_t in = 0;
    for (; in + 2 * w <= end; ++out) {
      std::size_t repeats = 1;
      while (in + (repeats + 1) * w <= end &&
             WindowsEqual(nodes, in, in + repeats * w, w)) {
        ++repeats;
      }
      if (repeats < 2) {
        if (out != in) nodes[out] = std::move(nodes[in]);
        ++in;
        continue;
      }

      Node loop;
      if (w == 1 && nodes[in].is_loop()) {
        // Merging consecutive identical loops: multiply the counts.
        loop = std::move(nodes[in]);
        loop.count *= static_cast<std::uint32_t>(repeats);
      } else {
        loop.count = static_cast<std::uint32_t>(repeats);
        loop.body.assign(std::make_move_iterator(nodes.begin() + static_cast<long>(in)),
                         std::make_move_iterator(nodes.begin() + static_cast<long>(in + w)));
      }
      nodes[out] = std::move(loop);
      in += repeats * w;
      changed = true;  // keep scanning from the fold onwards
    }
    if (out != in) {
      std::move(nodes.begin() + static_cast<long>(in), nodes.end(),
                nodes.begin() + static_cast<long>(out));
      nodes.resize(out + (end - in));
    }
  }
  return changed;
}

std::size_t CountNodes(const std::vector<Node>& nodes) {
  std::size_t n = 0;
  for (const auto& node : nodes) {
    n += 1 + (node.is_loop() ? CountNodes(node.body) : 0);
  }
  return n;
}

std::uint64_t CountEvents(const std::vector<Node>& nodes) {
  std::uint64_t n = 0;
  for (const auto& node : nodes) {
    if (node.is_loop()) {
      n += node.count * CountEvents(node.body);
    } else {
      n += node.count;
    }
  }
  return n;
}

void Replay(const std::vector<Node>& nodes,
            const std::function<void(const Event&)>& action) {
  for (const auto& node : nodes) {
    for (std::uint32_t i = 0; i < node.count; ++i) {
      if (node.is_loop()) {
        Replay(node.body, action);
      } else {
        action(node.literal);
      }
    }
  }
}

}  // namespace

std::size_t CompressedTrace::node_count() const { return CountNodes(nodes); }
std::uint64_t CompressedTrace::event_count() const { return CountEvents(nodes); }

void CompressedTrace::replay(const std::function<void(const Event&)>& action) const {
  Replay(nodes, action);
}

std::vector<Event> CompressedTrace::expand() const {
  std::vector<Event> out;
  out.reserve(event_count());
  replay([&](const Event& e) { out.push_back(e); });
  return out;
}

CompressedTrace Compress(const std::vector<Event>& events, std::size_t max_window) {
  CompressedTrace trace;
  trace.nodes.reserve(events.size());
  for (const Event& e : events) {
    Node n;
    n.literal = e;
    trace.nodes.push_back(std::move(n));
  }
  while (FoldOnce(trace.nodes, max_window)) {
  }
  return trace;
}

std::vector<Event> SyntheticAppTrace(int timesteps, int writes_per_step,
                                     int checkpoint_every) {
  std::vector<Event> out;
  out.push_back({Event::Kind::open, 1});
  for (int t = 0; t < timesteps; ++t) {
    out.push_back({Event::Kind::compute, 500});
    for (int w = 0; w < writes_per_step; ++w) {
      out.push_back({Event::Kind::seek, 47 * 1024});
      out.push_back({Event::Kind::write, 47 * 1024});
    }
    out.push_back({Event::Kind::barrier, 0});
    if (checkpoint_every > 0 && (t + 1) % checkpoint_every == 0) {
      out.push_back({Event::Kind::open, 2});
      for (int w = 0; w < 4; ++w) out.push_back({Event::Kind::write, 1 << 20});
      out.push_back({Event::Kind::close, 2});
    }
  }
  out.push_back({Event::Kind::close, 1});
  return out;
}

}  // namespace pdsi::scalatrace
