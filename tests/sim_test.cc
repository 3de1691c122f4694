// Tests for the deterministic virtual-time scheduler and the event queue.
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "pdsi/common/rng.h"
#include "pdsi/sim/event_queue.h"
#include "pdsi/sim/virtual_time.h"

namespace pdsi::sim {
namespace {

TEST(VirtualScheduler, SingleActorAdvances) {
  VirtualScheduler s(1);
  s.advance(0, 1.5);
  s.advance(0, 2.5);
  EXPECT_DOUBLE_EQ(s.now(0), 4.0);
  s.finish(0);
  EXPECT_TRUE(s.all_finished());
}

// Actors performing interleaved reservations on one resource must observe
// a globally virtual-time-ordered admission sequence, independent of OS
// scheduling. Run the identical program twice and compare event orders.
std::vector<int> RunAdmissionOrder(unsigned jitter_seed) {
  VirtualScheduler sched(4);
  SimResource disk;
  std::vector<int> order;
  sched.run([&](std::size_t a) {
    // Stagger wall-clock starts to try to shake nondeterminism loose.
    std::this_thread::sleep_for(
        std::chrono::microseconds(((a + jitter_seed) % 4) * 200));
    for (int i = 0; i < 5; ++i) {
      sched.atomically(a, [&](double now) {
        order.push_back(static_cast<int>(a));
        // Different service times per actor => interleaved admissions.
        return disk.reserve(now, 0.001 * static_cast<double>(a + 1));
      });
    }
  });
  return order;
}

TEST(VirtualScheduler, AdmissionOrderIsDeterministic) {
  const auto first = RunAdmissionOrder(0);
  for (unsigned seed = 1; seed < 4; ++seed) {
    EXPECT_EQ(RunAdmissionOrder(seed), first);
  }
  // And is exactly the virtual-time order: actor 0 (fastest ops) should
  // lead; first admission must be actor 0 (all start at t=0, lowest id).
  EXPECT_EQ(first.front(), 0);
}

TEST(VirtualScheduler, TiesBreakByActorId) {
  VirtualScheduler sched(3);
  std::vector<int> order;
  sched.run([&](std::size_t a) {
    sched.atomically(a, [&](double now) {
      order.push_back(static_cast<int>(a));
      return now + 1.0;  // all land on the same time again
    });
    sched.atomically(a, [&](double now) {
      order.push_back(static_cast<int>(a));
      return now;
    });
  });
  const std::vector<int> expect{0, 1, 2, 0, 1, 2};
  EXPECT_EQ(order, expect);
}

TEST(VirtualScheduler, OperationAfterFinishThrows) {
  VirtualScheduler sched(1);
  VirtualBarrier barrier(sched, {0});
  sched.finish(0);
  EXPECT_THROW(sched.advance(0, 1.0), std::logic_error);
  EXPECT_THROW(barrier.arrive(0), std::logic_error);
}

TEST(VirtualScheduler, RunReturnsLatestTimeAndFinishesEveryActor) {
  VirtualScheduler sched(3);
  const double end = sched.run([&](std::size_t a) {
    sched.advance(a, 1.5 * static_cast<double>(a));  // ends at 0, 1.5, 3
  });
  EXPECT_DOUBLE_EQ(end, 3.0);
  EXPECT_TRUE(sched.all_finished());
}

// A body that returns early is finished by run(), so it no longer holds
// the (time, id) minimum against a peer that keeps going; unfinished, it
// would block actor 1 forever once actor 1 passed t = 1.
TEST(VirtualScheduler, RunFinishesABodyThatReturnsEarly) {
  VirtualScheduler sched(2);
  const double end = sched.run([&](std::size_t a) {
    if (a == 0) {
      sched.advance(0, 1.0);
      return;
    }
    for (int i = 0; i < 100; ++i) sched.advance(1, 0.25);
  });
  EXPECT_DOUBLE_EQ(end, 25.0);
  EXPECT_DOUBLE_EQ(sched.now(0), 1.0);
}

// A throwing body is finished like a returning one, its peers run to the
// end, and run() rethrows the lowest throwing actor's exception.
TEST(VirtualScheduler, RunRethrowsTheLowestActorsException) {
  VirtualScheduler sched(3);
  int steps = 0;  // actor 0's; read after run() has joined it
  EXPECT_THROW(sched.run([&](std::size_t a) {
                 sched.advance(a, 1.0);
                 if (a == 1) throw std::runtime_error("actor 1");
                 if (a == 2) throw std::logic_error("actor 2");
                 for (; steps < 10; ++steps) sched.advance(0, 1.0);
               }),
               std::runtime_error);
  EXPECT_EQ(steps, 10);
  EXPECT_TRUE(sched.all_finished());
}

long VoluntaryContextSwitches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_nvcsw;
}

// An admission hands the turn to the one actor that becomes the minimum,
// so a contended run costs about one voluntary context switch per
// admission. Waking every parked actor on each admission costs nearly one
// per actor.
TEST(VirtualScheduler, AdmissionWakesOnlyTheNextActor) {
  constexpr std::size_t kActors = 64;
  constexpr int kAdmissions = 100;
  VirtualScheduler sched(kActors);
  const long before = VoluntaryContextSwitches();
  sched.run([&](std::size_t a) {
    // Staggered service times interleave the actors' admissions.
    const double service = 1.0 + 0.01 * static_cast<double>(a);
    for (int i = 0; i < kAdmissions; ++i) sched.advance(a, service);
  });
  const double per_admission =
      static_cast<double>(VoluntaryContextSwitches() - before) / (kActors * kAdmissions);
  EXPECT_LE(per_admission, 8.0);
}

// A barrier completion re-admits every participant but wakes only the
// first of them; the others resume one at a time, each at its own turn,
// so an arrival costs about one voluntary switch (1.0-1.3 measured on 4
// vCPUs). Waking all of them at once, only for each to park again until
// its turn, cost 3.1-3.2.
TEST(VirtualBarrier, CompletionWakesOnlyTheNextActor) {
  constexpr std::size_t kActors = 64;
  constexpr int kBarriers = 50;
  VirtualScheduler sched(kActors);
  VirtualBarrier barrier(sched);
  const long before = VoluntaryContextSwitches();
  sched.run([&](std::size_t a) {
    for (int i = 0; i < kBarriers; ++i) barrier.arrive(a);
  });
  const double per_arrival =
      static_cast<double>(VoluntaryContextSwitches() - before) / (kActors * kBarriers);
  EXPECT_LE(per_arrival, 2.0);
}

// Seeded per-actor scripts, run threaded and by a sequential reference.
struct Step {
  enum class Kind { kAdvance, kArrive, kFinish };
  Kind kind;
  double dt = 0.0;
};

struct Script {
  std::vector<std::size_t> participants;  ///< of the one barrier
  std::vector<std::vector<Step>> steps;   ///< per actor; each ends in kFinish
};

using AdmissionLog = std::vector<std::pair<std::size_t, double>>;  // (actor, now)

// Advances by quantized dts (so equal times and id tie-breaks are common),
// the same number of arrivals at one barrier over a seeded subset for
// every participant, and a finish after a seeded number of steps, so some
// actors leave while others still run.
Script MakeScript(std::size_t actors, std::uint64_t seed) {
  Rng rng(seed);
  Script s;
  for (std::size_t a = 0; a < actors; ++a) {
    if (rng.chance(0.5)) s.participants.push_back(a);
  }
  if (s.participants.empty()) s.participants.push_back(rng.below(actors));
  const std::uint64_t rounds = rng.below(4);
  s.steps.resize(actors);
  for (std::size_t a = 0; a < actors; ++a) {
    const bool joins = std::find(s.participants.begin(), s.participants.end(), a) !=
                       s.participants.end();
    std::uint64_t arrivals = joins ? rounds : 0;
    std::uint64_t advances = rng.below(10);
    while (arrivals + advances > 0) {
      if (rng.below(arrivals + advances) < arrivals) {
        s.steps[a].push_back({Step::Kind::kArrive});
        --arrivals;
      } else {
        s.steps[a].push_back({Step::Kind::kAdvance, 0.5 * static_cast<double>(rng.below(4))});
        --advances;
      }
    }
    s.steps[a].push_back({Step::Kind::kFinish});
  }
  return s;
}

AdmissionLog RunThreaded(const Script& s) {
  VirtualScheduler sched(s.steps.size());
  VirtualBarrier barrier(sched, s.participants);
  AdmissionLog log;  // appended only inside admitted sections
  sched.run([&](std::size_t a) {
    for (const Step& step : s.steps[a]) {
      switch (step.kind) {
        case Step::Kind::kAdvance:
          sched.atomically(a, [&](double now) {
            log.emplace_back(a, now);
            return now + step.dt;
          });
          break;
        case Step::Kind::kArrive:
          barrier.arrive(a);
          break;
        case Step::Kind::kFinish:
          sched.finish(a);
          break;
      }
    }
  });
  return log;
}

// The (time, id)-minimum active actor takes its next step. A finish may
// take effect early in the threaded run without changing the log; an
// arrival takes effect at the arriver's turn, and the last one resumes
// every participant at the latest arrival time.
AdmissionLog RunReference(const Script& s) {
  enum class State { kActive, kParked, kFinished };
  const std::size_t n = s.steps.size();
  std::vector<double> t(n, 0.0);
  std::vector<std::size_t> pc(n, 0);
  std::vector<State> state(n, State::kActive);
  std::size_t arrived = 0;
  double latest = 0.0;
  AdmissionLog log;
  for (;;) {
    std::size_t next = n;
    for (std::size_t a = 0; a < n; ++a) {
      if (state[a] == State::kActive && (next == n || t[a] < t[next])) next = a;
    }
    if (next == n) return log;
    const Step& step = s.steps[next][pc[next]++];
    switch (step.kind) {
      case Step::Kind::kAdvance:
        log.emplace_back(next, t[next]);
        t[next] += step.dt;
        break;
      case Step::Kind::kArrive:
        state[next] = State::kParked;
        latest = std::max(latest, t[next]);
        if (++arrived == s.participants.size()) {
          for (std::size_t p : s.participants) {
            t[p] = latest;
            state[p] = State::kActive;
          }
          arrived = 0;
          latest = 0.0;
        }
        break;
      case Step::Kind::kFinish:
        state[next] = State::kFinished;
        break;
    }
  }
}

TEST(VirtualScheduler, MatchesSequentialReference) {
  for (std::size_t actors : {1, 2, 5, 64}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      const Script s = MakeScript(actors, seed * 100 + actors);
      ASSERT_EQ(RunThreaded(s), RunReference(s)) << actors << " actors, seed " << seed;
    }
  }
}

TEST(SimResource, FifoQueueing) {
  SimResource r;
  // Arrivals in virtual-time order: 0.0 (svc 2), 1.0 (svc 1), 1.5 (svc 1).
  EXPECT_DOUBLE_EQ(r.reserve(0.0, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(r.reserve(1.0, 1.0), 3.0);  // queued behind first
  EXPECT_DOUBLE_EQ(r.reserve(1.5, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(r.busy_seconds(), 4.0);
  // Idle gap: arrival after free time starts immediately.
  EXPECT_DOUBLE_EQ(r.reserve(10.0, 0.5), 10.5);
}

TEST(VirtualBarrier, SynchronisesToMaxTime) {
  // The participant list and the all-actor constructor build one barrier.
  for (const bool all_actors : {false, true}) {
    VirtualScheduler sched(3);
    VirtualBarrier barrier = all_actors ? VirtualBarrier(sched)
                                        : VirtualBarrier(sched, {0, 1, 2});
    std::vector<double> synced(3);
    sched.run([&](std::size_t a) {
      sched.advance(a, static_cast<double>(a) * 2.0);  // times 0, 2, 4
      synced[a] = barrier.arrive(a);
    });
    for (int a = 0; a < 3; ++a) {
      EXPECT_DOUBLE_EQ(synced[a], 4.0) << "all_actors=" << all_actors;
    }
  }
}

TEST(VirtualBarrier, NonParticipantsKeepMoving) {
  VirtualScheduler sched(3);
  VirtualBarrier barrier(sched, {0, 1});
  std::atomic<bool> outsider_done{false};
  // Actor 0 parks at the barrier immediately (t = 0); actor 1 first runs
  // to t = 1 and then arrives. Actor 2 is not a participant: it must be
  // able to advance to t = 0.1 even while actor 0 is parked — if parked
  // actors gated the minimum, this test would deadlock.
  sched.run([&](std::size_t a) {
    if (a == 2) {
      for (int i = 0; i < 100; ++i) sched.advance(2, 0.001);
      outsider_done = true;
      return;
    }
    if (a == 1) sched.advance(1, 1.0);
    barrier.arrive(a);
  });
  EXPECT_TRUE(outsider_done.load());
  EXPECT_TRUE(sched.all_finished());
}

TEST(VirtualBarrier, ReusableAcrossGenerations) {
  VirtualScheduler sched(2);
  VirtualBarrier barrier(sched, {0, 1});
  std::vector<double> last(2);
  sched.run([&](std::size_t a) {
    for (int round = 0; round < 10; ++round) {
      sched.advance(a, a == 0 ? 1.0 : 2.0);
      last[a] = barrier.arrive(a);
    }
  });
  EXPECT_DOUBLE_EQ(last[0], last[1]);
  EXPECT_DOUBLE_EQ(last[0], 20.0);  // max path is actor 1: 10 rounds x 2s
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.at(3.0, [&] { order.push_back(3); });
  q.at(1.0, [&] { order.push_back(1); });
  q.at(2.0, [&] { order.push_back(2); });
  q.run();
  const std::vector<int> expect{1, 2, 3};
  EXPECT_EQ(order, expect);
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.at(1.0, [&, i] { order.push_back(i); });
  q.run();
  const std::vector<int> expect{0, 1, 2, 3, 4};
  EXPECT_EQ(order, expect);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  auto id = q.at(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double-cancel reports failure
  q.run();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) q.after(1.0, tick);
  };
  q.after(1.0, tick);
  q.run();
  EXPECT_EQ(count, 10);
  EXPECT_DOUBLE_EQ(q.now(), 10.0);
}

TEST(EventQueue, RunUntilStopsAtBoundary) {
  EventQueue q;
  int count = 0;
  q.at(1.0, [&] { ++count; });
  q.at(5.0, [&] { ++count; });
  q.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  q.run();
  EXPECT_EQ(count, 2);
}

TEST(EventQueue, PastSchedulingThrows) {
  EventQueue q;
  q.at(2.0, [] {});
  q.run();
  EXPECT_THROW(q.at(1.0, [] {}), std::invalid_argument);
}

TEST(EventQueue, RunawayGuard) {
  EventQueue q;
  std::function<void()> forever = [&] { q.after(1.0, forever); };
  q.after(1.0, forever);
  EXPECT_THROW(q.run(1000), std::runtime_error);
}

}  // namespace
}  // namespace pdsi::sim
