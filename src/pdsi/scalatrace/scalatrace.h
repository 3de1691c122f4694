// ScalaTrace-style structural trace compression (§5.4.2; ORNL + NCSU).
//
// "To control event trace file size, ScalaTrace recognizes repetitive
// behavior patterns (e.g., loops) and saves information describing the
// pattern rather than detailed information about each event." ORNL
// extended it to POSIX I/O events and replayed traces into their
// performance-prediction framework.
//
// This module implements the core idea: an event stream is folded into a
// loop structure (RSD — regular section descriptors) by greedy detection
// of adjacent repeats, giving near-constant trace size for iterative
// applications; replay() regenerates the exact original stream,
// optionally through a user-defined action (the ORNL extension used for
// workload analysis instead of MPI re-execution).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace pdsi::scalatrace {

/// One traced operation (MPI-IO / POSIX level).
struct Event {
  enum class Kind : std::uint8_t {
    open, close, read, write, seek, barrier, compute
  };
  Kind kind = Kind::compute;
  std::uint64_t arg = 0;  ///< bytes for read/write, offset delta for seek...

  bool operator==(const Event&) const = default;
};

/// A compressed trace: a sequence of nodes, each either a literal event
/// or a loop of an inner sequence.
class CompressedTrace {
 public:
  struct Node {
    // literal when count == 1 and body empty; loop otherwise.
    Event literal{};
    std::uint32_t count = 1;
    std::vector<Node> body;

    bool is_loop() const { return !body.empty(); }
  };

  /// Number of structural nodes (the stored size measure).
  std::size_t node_count() const;

  /// Total events the trace expands to.
  std::uint64_t event_count() const;

  /// Regenerates the full stream through `action`.
  void replay(const std::function<void(const Event&)>& action) const;

  /// Expands to a flat vector (tests / small traces).
  std::vector<Event> expand() const;

  std::vector<Node> nodes;
};

/// Folds an event stream into loop structure. Greedy bottom-up: repeated
/// adjacent windows (up to `max_window` events) collapse into loop nodes,
/// applied iteratively so nested loops fold too.
CompressedTrace Compress(const std::vector<Event>& events,
                         std::size_t max_window = 64);

/// A synthetic iterative application trace: per timestep, compute +
/// strided writes + barrier; every `checkpoint_every` steps, a checkpoint
/// sequence. This is the shape ScalaTrace compresses to O(1).
std::vector<Event> SyntheticAppTrace(int timesteps, int writes_per_step,
                                     int checkpoint_every);

}  // namespace pdsi::scalatrace
