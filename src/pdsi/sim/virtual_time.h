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
// element. Every change to the set (an admission, a finish, a barrier
// arrival or completion) wakes exactly the actor that became first, if
// any, instead of every waiter; a participant parked at a completed
// barrier resumes at its own turn, like any admission. An admitted actor
// that is still first after moving its clock runs on without a wake-up.
// Admission costs O(log N), and takes its section as a FunctionRef, so it
// allocates nothing. Waiting is one private pair, park()/unpark(), over
// one 32-bit futex word per actor: park() clears the actor's word under
// the scheduler lock, releases the lock and sleeps in FUTEX_WAIT while the
// word is clear; unpark() sets the word after the waker has released the
// lock, then makes one FUTEX_WAKE. A waker therefore decides whom to wake
// only after the sleeper's word was cleared, so no wake-up is lost; a late
// one only makes a sleeper re-check its turn. A hand-off costs one thread
// switch and two futex calls. park() does not spin before it sleeps: the
// thread that would end the wait shares its CPU (below).
//
// One CPU per multi-actor scheduler. Only the turn holder runs simulated
// work, so the actors lose no parallelism by sharing a core, and a
// hand-off between threads on one CPU is a cheap same-CPU wake-up instead
// of a cross-CPU one (an interrupt and another vCPU leaving idle). A
// scheduler with more than one actor records the CPU its constructor runs
// on. An actor thread is pinned there from its first entry (atomically()
// or VirtualBarrier::arrive()) until finish() runs on it, and runs as
// SCHED_BATCH meanwhile: a woken batch thread waits for the waker to park
// instead of preempting it, so a hand-off is one voluntary switch and no
// involuntary one. What an actor's thread runs between admissions shares
// the core too.
//
// The builder's hold. The constructor also pins the thread that builds the
// scheduler (the holder) to that CPU and moves it from SCHED_OTHER to
// SCHED_BATCH, and threads the holder starts while it is held inherit both.
// So run()'s actor threads, and perfbench's parked rank threads, are born,
// released, run and exit on the one CPU, and their first entry changes
// nothing: a thread already alone on the CPU and not SCHED_OTHER only reads
// its mask and policy, and finish() then has nothing to put back for it. Born
// anywhere else, a rank thread would park on whichever vCPU the kernel chose,
// be released from another and migrate at its first entry, each step a
// cross-CPU interrupt. The hold ends on the holder's next call that changes
// the scheduler: in run() once every actor thread exists, before any body
// starts; at an admission or a barrier arrival, where it goes on as that
// actor's pin; in finish() with any id, before the id is checked; or in the
// destructor. A thread keeps a count of the schedulers holding it beside its
// actor pin, and gets its own mask and SCHED_OTHER back only when nothing
// holds or pins it any more. A scheduler destroyed on another thread leaves
// its holder as it is, because the holder may have exited. The cost of the
// hold: the holder's own work between construction and the end of the hold
// (building a cluster, starting threads) shares the one CPU, and a thread
// started meanwhile that never enters as an actor keeps that CPU and
// SCHED_BATCH for its whole life. Actor threads started from any other thread
// are pinned on entry, and finish() puts their saved mask and SCHED_OTHER
// back; Totals::pins counts those entries. A single-actor scheduler holds and
// pins nothing and parks never. If the CPU or the thread's mask cannot be
// read, or the mask cannot be set, the thread runs wherever the OS puts it; a
// policy that cannot be read or set, or is not SCHED_OTHER, is left alone.
// The simulation is the same either way.
//
// No simulated operation may follow finish(): a finished actor is no
// longer in the ready set, so atomically() and VirtualBarrier::arrive()
// throw std::logic_error for it (in every build type) instead of waiting
// for a turn that never comes. An actor id out of range throws the same
// way from every member that takes one.
#pragma once

#include <atomic>
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
  /// Creates a scheduler for actors 0..n-1, all active at time 0. With
  /// n > 1 it holds the calling thread on its CPU (see the file comment).
  explicit VirtualScheduler(std::size_t num_actors);
  /// Ends the hold if called on the holder, and adds this scheduler's
  /// admissions, parks and pins to ProcessTotals().
  ~VirtualScheduler();
  VirtualScheduler(const VirtualScheduler&) = delete;
  VirtualScheduler& operator=(const VirtualScheduler&) = delete;

  std::size_t num_actors() const { return times_.size(); }

  /// The actor's current virtual time. Only the actor itself may assume
  /// this is exact; other threads get a snapshot. Throws
  /// std::logic_error when `actor` is out of range.
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
  /// Called on the holder, it ends the hold once every thread exists.
  double run(const std::function<void(std::size_t actor)>& body);

  /// Marks the actor finished; it no longer gates other actors and may
  /// issue no further simulated operation. Idempotent. Called on the
  /// holder, it first ends the hold, whatever the id. Called on a thread
  /// this scheduler pinned as an actor, it restores that thread's CPU mask
  /// and policy unless another scheduler still holds it. run() calls it
  /// for every actor; perfbench's parked rank threads call it themselves.
  /// Throws std::logic_error when `actor` is out of range.
  void finish(std::size_t actor);

  /// True once every actor has finished.
  bool all_finished() const;

  /// Turns granted (atomically() sections and barrier arrivals), parks
  /// (sleeps until a turn or a barrier completion) and pins (actor
  /// entries that had to change their thread's mask or policy, each a
  /// migration and up to four system calls) over every scheduler this
  /// process has destroyed. Each scheduler counts under its own lock and
  /// adds its counts here once, when it is destroyed.
  struct Totals {
    std::uint64_t admissions = 0;
    std::uint64_t parks = 0;
    std::uint64_t pins = 0;
  };
  static Totals ProcessTotals();

 private:
  friend class VirtualBarrier;
  using Key = std::pair<double, std::size_t>;  // (virtual time, actor id)

  /// Throws std::logic_error (naming `what`) when `actor` is out of range.
  void check_actor(std::size_t actor, const char* what) const;
  /// Blocks until `actor` is the first ready key, pinning the calling
  /// thread to cpu_ as an actor first if it is not yet (a holder's hold
  /// goes on as that pin); throws std::logic_error (naming `what`) when
  /// `actor` is not in the ready set at all.
  void wait_turn_locked(std::unique_lock<std::mutex>& lk, std::size_t actor,
                        const char* what);
  /// Releases `lk`, then unparks the actor holding the first ready key,
  /// if any.
  void hand_over(std::unique_lock<std::mutex>& lk);
  /// Clears `actor`'s word under `lk`, releases `lk`, sleeps until
  /// unpark(actor) sets the word, and takes `lk` again. Callers re-check
  /// what they wait for in a loop: a late unpark can end a later park.
  void park(std::unique_lock<std::mutex>& lk, std::size_t actor);
  /// Sets `actor`'s word and wakes its thread; called without the lock.
  void unpark(std::size_t actor);
  /// Ends the hold if the calling thread is the holder and it lasts.
  void release_hold();

  mutable std::mutex mu_;
  std::vector<double> times_;
  std::set<Key> ready_;  ///< active actors, first = next to run
  std::vector<std::atomic<std::uint32_t>> wake_;  ///< futex words, one per actor
  const int cpu_;  ///< the CPU actor threads are pinned to; -1 for none
  /// The holder's thread number (0 for none), set by the constructor, and
  /// whether the hold lasts, read and written only on the holder.
  std::uint64_t holder_ = 0;
  bool held_ = false;
  std::uint64_t admissions_ = 0;  ///< turns granted; under mu_
  std::uint64_t parks_ = 0;       ///< park() calls; under mu_
  std::uint64_t pins_ = 0;        ///< entries that moved their thread; under mu_
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
  /// A barrier over `participants` only: non-empty, each an actor of
  /// `sched` listed once, else std::invalid_argument.
  VirtualBarrier(VirtualScheduler& sched, std::vector<std::size_t> participants);

  /// Blocks until all participants arrive. Returns the synchronised time.
  /// Throws std::logic_error when `actor` is finished or not a
  /// participant.
  double arrive(std::size_t actor);

 private:
  VirtualScheduler& sched_;
  std::vector<std::size_t> participants_;
  std::vector<bool> member_;  ///< per actor of sched_: a participant
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
