// Deterministic virtual-time coordination for thread-ranks.
//
// Rank programs (checkpoint writers, metadata clients) are ordinary
// synchronous C++. They start only through VirtualScheduler::run(), which
// runs each actor's body on its own std::thread and finishes the actor
// when the body returns (perfbench's parked rank threads, which keep
// thread start-up out of the measured phase, are the one exception); a
// single-actor scheduler needs no run(), its one actor is driven from the
// calling thread. Every simulated I/O goes through
// VirtualScheduler::atomically(), which admits exactly one thread at a
// time: the one whose (virtual time, actor id) pair is the lexicographic
// minimum over all active actors. Inside the admitted section the actor
// reserves time on shared SimResources (disks, servers, locks) and moves
// its own clock to the operation's completion time.
//
// Because admissions are totally ordered by (time, id) and all shared
// state is touched only inside admitted sections, the simulation is an
// exact, reproducible conservative discrete-event execution: re-running
// with the same seeds produces byte-identical results regardless of OS
// thread scheduling.
//
// Wake-the-min hand-off. The active actors sit in one ordered *ready set*
// of (time, id) keys; an actor runs only when it is the set's first
// element. Each actor sleeps on its own condition variable, and every
// change to the set (an admission, a finish, a barrier arrival or
// completion) wakes exactly the actor that became first, if any, instead
// of every waiter; a participant parked at a completed barrier resumes at
// its own turn, like any admission. An admitted actor that is still first
// after moving its clock runs on without a wake-up. Admission costs
// O(log N) and about one thread switch when the turn passes to another
// actor, and takes its section as a FunctionRef, so it allocates nothing.
//
// No simulated operation may follow finish(): a finished actor is no
// longer in the ready set, so atomically() and VirtualBarrier::arrive()
// throw std::logic_error for it (in every build type) instead of waiting
// for a turn that never comes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "pdsi/common/function_ref.h"

namespace pdsi::sim {

class VirtualScheduler {
 public:
  /// Creates a scheduler for actors 0..n-1, all active at time 0.
  explicit VirtualScheduler(std::size_t num_actors);

  std::size_t num_actors() const { return times_.size(); }

  /// The actor's current virtual time. Only the actor itself may assume
  /// this is exact; other threads get a snapshot.
  double now(std::size_t actor) const;

  /// Blocks until `actor` is the (time, id)-minimum, then runs `fn(now)`
  /// under the scheduler lock. `fn` returns the actor's new absolute time,
  /// which must be >= now. Shared simulation state (resources, lock
  /// tables) must only be touched inside such sections. Throws
  /// std::logic_error when `actor` is finished or out of range. `fn` is
  /// referenced, not copied, so an admission allocates nothing.
  void atomically(std::size_t actor, FunctionRef<double(double)> fn);

  /// Convenience: advance the actor's clock by dt (>= 0).
  void advance(std::size_t actor, double dt);

  /// Runs `body(actor)` for every actor, each on its own thread, and
  /// returns once all of them have returned. An actor is finished as soon
  /// as its body returns, so a body that ends early never blocks its peers
  /// in atomically(); a peer parked at a barrier the body never reached
  /// still waits. Returns the largest virtual time any actor reached. If
  /// bodies throw, every actor still finishes and run() rethrows the
  /// exception of the lowest such actor after all threads have joined. If
  /// a thread cannot be started, no body runs and that error propagates.
  double run(const std::function<void(std::size_t actor)>& body);

  /// Marks the actor finished; it no longer gates other actors and may
  /// issue no further simulated operation. Idempotent. run() calls it for
  /// every actor; perfbench's parked rank threads call it themselves.
  void finish(std::size_t actor);

  /// True once every actor has finished.
  bool all_finished() const;

 private:
  friend class VirtualBarrier;
  using Key = std::pair<double, std::size_t>;  // (virtual time, actor id)

  /// Blocks until `actor` is the first ready key; throws std::logic_error
  /// (naming `what`) when it is not in the ready set at all.
  void wait_turn_locked(std::unique_lock<std::mutex>& lk, std::size_t actor,
                        const char* what);
  /// Notifies the actor holding the first ready key, if any.
  void wake_first_locked();

  mutable std::mutex mu_;
  std::vector<double> times_;
  std::set<Key> ready_;  ///< active actors, first = next to run
  std::vector<std::condition_variable> wake_;  ///< one per actor
};

/// Synchronises a fixed set of participants: every arriver blocks until
/// all have arrived, then all resume with their clocks set to the maximum
/// arrival time (the barrier's completion instant). An arrival takes
/// effect at the arriver's (time, id) turn, like an admission, so the
/// completion instant is ordered against every other actor's operations.
/// Participants leave the ready set while parked so non-participants can
/// keep making progress.
class VirtualBarrier {
 public:
  /// A barrier over every actor of `sched`.
  explicit VirtualBarrier(VirtualScheduler& sched);
  /// A barrier over `participants` only (non-empty).
  VirtualBarrier(VirtualScheduler& sched, std::vector<std::size_t> participants);

  /// Blocks until all participants arrive. Returns the synchronised time.
  /// Throws std::logic_error when `actor` is finished.
  double arrive(std::size_t actor);

 private:
  VirtualScheduler& sched_;
  std::vector<std::size_t> participants_;
  std::size_t arrived_ = 0;
  std::uint64_t generation_ = 0;
  double max_time_ = 0.0;
};

/// A FIFO single-server resource (disk head, NIC, server CPU). Reserve
/// only inside VirtualScheduler::atomically sections; admission order
/// guarantees reservations arrive in nondecreasing virtual time, which
/// makes the one-word clock an exact FIFO queue model.
class SimResource {
 public:
  /// Reserves `service` seconds starting no earlier than `now`; returns
  /// the completion time.
  double reserve(double now, double service) {
    const double start = now > free_ ? now : free_;
    free_ = start + service;
    busy_ += service;
    return free_;
  }

  /// Next instant the resource is idle.
  double free_at() const { return free_; }

  /// Total busy seconds accumulated (for utilisation reporting).
  double busy_seconds() const { return busy_; }

 private:
  double free_ = 0.0;
  double busy_ = 0.0;
};

inline constexpr double kTimeInfinity = std::numeric_limits<double>::infinity();

}  // namespace pdsi::sim
