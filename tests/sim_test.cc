// Tests for the deterministic virtual-time scheduler and the event queue.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "pdsi/common/rng.h"
#include "pdsi/sim/event_queue.h"
#include "pdsi/sim/virtual_time.h"

namespace pdsi::sim {
namespace {

// The CPUs the calling thread may run on.
cpu_set_t CallerCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  pthread_getaffinity_np(pthread_self(), sizeof mask, &mask);
  return mask;
}

cpu_set_t CpuMask(std::initializer_list<int> cpus) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (int c : cpus) CPU_SET(c, &mask);
  return mask;
}

std::vector<int> CpuList(const cpu_set_t& mask) {
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus.push_back(c);
  }
  return cpus;
}

bool SameCpus(const cpu_set_t& a, const cpu_set_t& b) { return CPU_EQUAL(&a, &b); }

// The calling thread's scheduling policy, or -1 when it cannot be read.
int CallerPolicy() {
  int policy = -1;
  sched_param param{};
  return pthread_getschedparam(pthread_self(), &policy, &param) == 0 ? policy : -1;
}

// Sets the calling thread's policy (SCHED_OTHER or SCHED_BATCH).
bool SetCallerPolicy(int policy) {
  const sched_param param{};
  return pthread_setschedparam(pthread_self(), policy, &param) == 0;
}

// Whether a SCHED_OTHER thread may move itself to SCHED_BATCH here; when
// it may not, the scheduler leaves every policy alone.
bool BatchPolicyAllowed() {
  bool allowed = false;
  std::thread([&] { allowed = CallerPolicy() == SCHED_OTHER && SetCallerPolicy(SCHED_BATCH); })
      .join();
  return allowed;
}

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

// finish() and now() check the actor id like atomically() does; none of
// the failed calls pins the calling thread.
TEST(VirtualScheduler, UnknownActorThrows) {
  const cpu_set_t before = CallerCpus();
  VirtualScheduler sched(2);
  EXPECT_THROW(sched.finish(2), std::logic_error);
  EXPECT_THROW(sched.now(2), std::logic_error);
  EXPECT_THROW(sched.advance(2, 1.0), std::logic_error);
  EXPECT_FALSE(sched.all_finished());
  EXPECT_TRUE(SameCpus(CallerCpus(), before));
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

rusage SelfUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

long VoluntaryContextSwitches() { return SelfUsage().ru_nvcsw; }
long InvoluntaryContextSwitches() { return SelfUsage().ru_nivcsw; }

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

// An unparked actor is a SCHED_BATCH thread, so it waits for its waker to
// park instead of preempting it: a contended run makes almost no
// involuntary switch per admission (0.007-0.023 measured on 4 vCPUs; with
// wake-up preemption it read 0.15-0.39). The scheduler's counts reach
// ProcessTotals() when it is destroyed: one admission per advance(), and
// nearly one park per admission, since the turn passes at almost every one.
TEST(VirtualScheduler, HandOffsDoNotPreemptTheWaker) {
  if (!BatchPolicyAllowed()) GTEST_SKIP() << "threads may not move to SCHED_BATCH";
  constexpr std::size_t kActors = 64;
  constexpr int kAdmissions = 100;
  const VirtualScheduler::Totals before = VirtualScheduler::ProcessTotals();
  const long ivcsw_before = InvoluntaryContextSwitches();
  {
    VirtualScheduler sched(kActors);
    sched.run([&](std::size_t a) {
      const double service = 1.0 + 0.01 * static_cast<double>(a);
      for (int i = 0; i < kAdmissions; ++i) sched.advance(a, service);
    });
  }
  const double admissions = kActors * kAdmissions;
  const double per_admission =
      static_cast<double>(InvoluntaryContextSwitches() - ivcsw_before) / admissions;
  EXPECT_LE(per_admission, 0.1);
  const VirtualScheduler::Totals after = VirtualScheduler::ProcessTotals();
  EXPECT_EQ(after.admissions - before.admissions, kActors * kAdmissions);
  EXPECT_GT(after.parks - before.parks, kActors * kAdmissions / 2);
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

// The actor threads of a multi-actor scheduler share one CPU, so a
// hand-off wakes a thread on the waker's own CPU.
TEST(VirtualScheduler, ActorsRunOnOneCpu) {
  if (CpuList(CallerCpus()).size() < 2) GTEST_SKIP() << "the process may run on one CPU only";
  constexpr std::size_t kActors = 8;
  constexpr int kAdmissions = 20;
  VirtualScheduler sched(kActors);
  std::vector<int> cpus;  // appended only inside admitted sections
  sched.run([&](std::size_t a) {
    // Staggered starts and service times interleave the admissions.
    std::this_thread::sleep_for(std::chrono::microseconds(300 * a));
    const double service = 1.0 + 0.01 * static_cast<double>(a);
    for (int i = 0; i < kAdmissions; ++i) {
      sched.atomically(a, [&](double now) {
        cpus.push_back(sched_getcpu());
        return now + service;
      });
    }
  });
  ASSERT_EQ(cpus.size(), kActors * kAdmissions);
  EXPECT_EQ(std::count(cpus.begin(), cpus.end(), cpus.front()),
            static_cast<std::ptrdiff_t>(cpus.size()));
}

// Rank threads started by hand, as perfbench's parked ranks are, run on
// the scheduler's CPU as SCHED_BATCH threads and get their own mask and
// policy back from finish(). A thread that was not SCHED_OTHER (actor 1
// starts as SCHED_BATCH) keeps its policy throughout.
TEST(VirtualScheduler, FinishRestoresTheThreadsCpuMask) {
  const std::vector<int> allowed = CpuList(CallerCpus());
  if (allowed.size() < 2) GTEST_SKIP() << "the process may run on one CPU only";
  const bool batch = BatchPolicyAllowed();
  // Constructed on a thread held to allowed[0], the scheduler records it.
  std::optional<VirtualScheduler> sched;
  std::thread([&] {
    const cpu_set_t first = CpuMask({allowed[0]});
    pthread_setaffinity_np(pthread_self(), sizeof first, &first);
    sched.emplace(2);
  }).join();
  // Narrower than the process's mask when it holds more than two CPUs.
  const cpu_set_t own = CpuMask({allowed[0], allowed[1]});
  std::array<cpu_set_t, 2> during{}, after{};
  std::array<int, 2> own_policy{}, policy_during{}, policy_after{};
  std::vector<std::thread> threads;
  for (std::size_t a = 0; a < 2; ++a) {
    threads.emplace_back([&, a] {
      pthread_setaffinity_np(pthread_self(), sizeof own, &own);
      if (batch && a == 1) SetCallerPolicy(SCHED_BATCH);
      own_policy[a] = CallerPolicy();
      for (int i = 0; i < 10; ++i) sched->advance(a, 1.0);
      during[a] = CallerCpus();
      policy_during[a] = CallerPolicy();
      sched->finish(a);
      after[a] = CallerCpus();
      policy_after[a] = CallerPolicy();
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t a = 0; a < 2; ++a) {
    EXPECT_TRUE(SameCpus(during[a], CpuMask({allowed[0]}))) << "actor " << a;
    EXPECT_TRUE(SameCpus(after[a], own)) << "actor " << a;
    EXPECT_EQ(policy_during[a], batch ? SCHED_BATCH : own_policy[a]) << "actor " << a;
    EXPECT_EQ(policy_after[a], own_policy[a]) << "actor " << a;
  }
  if (batch) {
    EXPECT_EQ(own_policy[0], SCHED_OTHER);
    EXPECT_EQ(own_policy[1], SCHED_BATCH);
  }
}

// Only actor threads of a multi-actor scheduler are pinned and moved to
// SCHED_BATCH: not the thread driving a single-actor scheduler, and not
// the one calling run().
TEST(VirtualScheduler, CallersKeepTheirCpuMask) {
  const cpu_set_t before = CallerCpus();
  const int policy_before = CallerPolicy();
  VirtualScheduler single(1);
  cpu_set_t inside{};
  int policy_inside = -1;
  single.atomically(0, [&](double now) {
    inside = CallerCpus();
    policy_inside = CallerPolicy();
    return now + 1.0;
  });
  single.finish(0);
  EXPECT_TRUE(SameCpus(inside, before));
  EXPECT_EQ(policy_inside, policy_before);
  VirtualScheduler multi(4);
  std::array<int, 4> actor_policy{};
  multi.run([&](std::size_t a) {
    multi.advance(a, 1.0);
    actor_policy[a] = CallerPolicy();
  });
  EXPECT_TRUE(SameCpus(CallerCpus(), before));
  EXPECT_EQ(CallerPolicy(), policy_before);
  if (BatchPolicyAllowed()) {
    for (int p : actor_policy) EXPECT_EQ(p, SCHED_BATCH);
  }
}

// Why a hold cannot show here, or nullptr when it can: the tests of the
// builder's hold need more than one CPU and a SCHED_BATCH thread.
const char* HoldCannotShow() {
  if (CpuList(CallerCpus()).size() < 2) return "the process may run on one CPU only";
  if (!BatchPolicyAllowed()) return "threads may not move to SCHED_BATCH";
  return nullptr;
}

std::uint64_t PinsSince(const VirtualScheduler::Totals& before) {
  return VirtualScheduler::ProcessTotals().pins - before.pins;
}

// A multi-actor scheduler holds the thread that builds it: the builder
// runs alone on the scheduler's CPU as a SCHED_BATCH thread, and a thread
// started meanwhile is born with the same mask and policy. The destructor,
// run on the builder, puts the builder's own back.
TEST(VirtualScheduler, ConstructionHoldsTheBuilder) {
  if (const char* why = HoldCannotShow()) GTEST_SKIP() << why;
  const cpu_set_t before = CallerCpus();
  const int policy_before = CallerPolicy();
  {
    VirtualScheduler sched(2);
    const cpu_set_t held = CallerCpus();
    ASSERT_EQ(CpuList(held).size(), 1u);
    EXPECT_EQ(CpuList(held).front(), sched_getcpu());
    EXPECT_EQ(CallerPolicy(), SCHED_BATCH);
    cpu_set_t born{};
    int born_policy = -1;
    std::thread([&] {
      born = CallerCpus();
      born_policy = CallerPolicy();
    }).join();
    EXPECT_TRUE(SameCpus(born, held));
    EXPECT_EQ(born_policy, SCHED_BATCH);
  }
  EXPECT_TRUE(SameCpus(CallerCpus(), before));
  EXPECT_EQ(CallerPolicy(), policy_before);
}

// run() on the builder ends the hold once every actor thread exists: the
// actors are born on the scheduler's CPU as SCHED_BATCH threads, so no
// entry moves one, and the builder has its own mask and policy back when
// run() returns.
TEST(VirtualScheduler, RunEndsTheHold) {
  if (const char* why = HoldCannotShow()) GTEST_SKIP() << why;
  constexpr std::size_t kActors = 4;
  const cpu_set_t before = CallerCpus();
  const int policy_before = CallerPolicy();
  const VirtualScheduler::Totals totals = VirtualScheduler::ProcessTotals();
  {
    VirtualScheduler sched(kActors);
    const cpu_set_t held = CallerCpus();
    std::array<cpu_set_t, kActors> born{}, during{};
    std::array<int, kActors> born_policy{}, policy_during{};
    sched.run([&](std::size_t a) {
      born[a] = CallerCpus();
      born_policy[a] = CallerPolicy();
      for (int i = 0; i < 10; ++i) sched.advance(a, 1.0 + 0.1 * static_cast<double>(a));
      during[a] = CallerCpus();
      policy_during[a] = CallerPolicy();
    });
    EXPECT_TRUE(SameCpus(CallerCpus(), before));
    EXPECT_EQ(CallerPolicy(), policy_before);
    for (std::size_t a = 0; a < kActors; ++a) {
      EXPECT_TRUE(SameCpus(born[a], held)) << "actor " << a;
      EXPECT_TRUE(SameCpus(during[a], held)) << "actor " << a;
      EXPECT_EQ(born_policy[a], SCHED_BATCH) << "actor " << a;
      EXPECT_EQ(policy_during[a], SCHED_BATCH) << "actor " << a;
    }
  }
  EXPECT_EQ(PinsSince(totals), 0u);
}

// perfbench's parked ranks: the builder starts the rank threads itself,
// and they admit, arrive at a barrier and finish() on their own. Every
// section runs on the scheduler's CPU, each rank keeps the mask and policy
// it was born with (finish() has nothing to put back), no entry moves a
// thread, and the builder gets its own mask back only when the scheduler
// is destroyed on it.
TEST(VirtualScheduler, HandStartedRanksKeepTheirBirthPin) {
  if (const char* why = HoldCannotShow()) GTEST_SKIP() << why;
  constexpr std::size_t kRanks = 4;
  const cpu_set_t before = CallerCpus();
  const int policy_before = CallerPolicy();
  const VirtualScheduler::Totals totals = VirtualScheduler::ProcessTotals();
  std::vector<int> cpus;  // appended only inside admitted sections
  cpu_set_t held{};
  {
    VirtualScheduler sched(kRanks);
    VirtualBarrier barrier(sched);
    held = CallerCpus();
    std::array<cpu_set_t, kRanks> born{}, after{};
    std::array<int, kRanks> born_policy{}, policy_after{};
    auto section = [&](double dt) {
      return [&, dt](double now) {
        cpus.push_back(sched_getcpu());
        return now + dt;
      };
    };
    std::vector<std::thread> ranks;
    for (std::size_t r = 0; r < kRanks; ++r) {
      ranks.emplace_back([&, r] {
        born[r] = CallerCpus();
        born_policy[r] = CallerPolicy();
        for (int i = 0; i < 5; ++i) sched.atomically(r, section(1.0 + 0.1 * static_cast<double>(r)));
        barrier.arrive(r);
        sched.atomically(r, section(1.0));
        sched.finish(r);
        after[r] = CallerCpus();
        policy_after[r] = CallerPolicy();
      });
    }
    for (std::thread& t : ranks) t.join();
    EXPECT_TRUE(SameCpus(CallerCpus(), held));
    EXPECT_EQ(CallerPolicy(), SCHED_BATCH);
    for (std::size_t r = 0; r < kRanks; ++r) {
      EXPECT_TRUE(SameCpus(born[r], held)) << "rank " << r;
      EXPECT_TRUE(SameCpus(after[r], held)) << "rank " << r;
      EXPECT_EQ(born_policy[r], SCHED_BATCH) << "rank " << r;
      EXPECT_EQ(policy_after[r], SCHED_BATCH) << "rank " << r;
    }
  }
  ASSERT_EQ(CpuList(held).size(), 1u);
  ASSERT_EQ(cpus.size(), kRanks * 6);
  EXPECT_EQ(std::count(cpus.begin(), cpus.end(), CpuList(held).front()),
            static_cast<std::ptrdiff_t>(cpus.size()));
  EXPECT_EQ(PinsSince(totals), 0u);
  EXPECT_TRUE(SameCpus(CallerCpus(), before));
  EXPECT_EQ(CallerPolicy(), policy_before);
}

// n1_checkpoint builds two schedulers per round on one thread: the thread
// stays held until the last of them lets go, whichever goes first.
TEST(VirtualScheduler, TwoHoldsLastUntilBothLetGo) {
  if (const char* why = HoldCannotShow()) GTEST_SKIP() << why;
  const cpu_set_t before = CallerCpus();
  const int policy_before = CallerPolicy();
  for (const bool first_built_goes_first : {true, false}) {
    SCOPED_TRACE(first_built_goes_first);
    std::optional<VirtualScheduler> first, second;
    first.emplace(2);
    const cpu_set_t held = CallerCpus();
    second.emplace(3);
    EXPECT_TRUE(SameCpus(CallerCpus(), held));
    (first_built_goes_first ? first : second).reset();
    EXPECT_TRUE(SameCpus(CallerCpus(), held));
    EXPECT_EQ(CallerPolicy(), SCHED_BATCH);
    (first_built_goes_first ? second : first).reset();
    EXPECT_TRUE(SameCpus(CallerCpus(), before));
    EXPECT_EQ(CallerPolicy(), policy_before);
  }
}

// A builder that enters its scheduler as an actor keeps the hold as its
// actor pin: the entry moves nothing, and finish() on it puts back the
// builder's original mask and policy.
TEST(VirtualScheduler, ABuilderThatEntersIsPinnedOnce) {
  if (const char* why = HoldCannotShow()) GTEST_SKIP() << why;
  const cpu_set_t before = CallerCpus();
  const int policy_before = CallerPolicy();
  const VirtualScheduler::Totals totals = VirtualScheduler::ProcessTotals();
  {
    VirtualScheduler sched(2);
    const cpu_set_t held = CallerCpus();
    cpu_set_t inside{};
    int policy_inside = -1;
    // A zero step keeps actor 0 the (time, id) minimum: no peer must run.
    sched.atomically(0, [&](double now) {
      inside = CallerCpus();
      policy_inside = CallerPolicy();
      return now;
    });
    EXPECT_TRUE(SameCpus(inside, held));
    EXPECT_EQ(policy_inside, SCHED_BATCH);
    sched.finish(0);
    EXPECT_TRUE(SameCpus(CallerCpus(), before));
    EXPECT_EQ(CallerPolicy(), policy_before);
    sched.finish(1);
  }
  EXPECT_EQ(PinsSince(totals), 0u);
}

// Actor threads started from a thread that does not hold the scheduler are
// moved onto its CPU on entry, and Totals::pins counts each. A scheduler
// destroyed on another thread than its holder (here one that has exited)
// leaves the destroying thread as it is.
TEST(VirtualScheduler, PinsCountActorThreadsMovedOnEntry) {
  const std::vector<int> allowed = CpuList(CallerCpus());
  if (allowed.size() < 2) GTEST_SKIP() << "the process may run on one CPU only";
  const cpu_set_t before = CallerCpus();
  const VirtualScheduler::Totals totals = VirtualScheduler::ProcessTotals();
  std::optional<VirtualScheduler> sched;
  std::thread([&] {
    const cpu_set_t first = CpuMask({allowed[0]});
    pthread_setaffinity_np(pthread_self(), sizeof first, &first);
    sched.emplace(2);
  }).join();
  std::vector<std::thread> threads;
  for (std::size_t a = 0; a < 2; ++a) {
    threads.emplace_back([&, a] {
      for (int i = 0; i < 5; ++i) sched->advance(a, 1.0);
      sched->finish(a);
    });
  }
  for (std::thread& t : threads) t.join();
  sched.reset();
  EXPECT_EQ(PinsSince(totals), 2u);
  EXPECT_TRUE(SameCpus(CallerCpus(), before));
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

// Advances by quantized dts (so equal times and id tie-breaks are common;
// with `ties` every dt is 0, so every admission is a tie), the same number
// of arrivals at one barrier over a seeded subset for every participant,
// and a finish after a seeded number of steps, so some actors leave while
// others still run.
Script MakeScript(std::size_t actors, std::uint64_t seed, bool ties) {
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
        const double dt = 0.5 * static_cast<double>(rng.below(4));
        s.steps[a].push_back({Step::Kind::kAdvance, ties ? 0.0 : dt});
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

// The guard against lost and stale wake-ups: a lost one hangs a run, and
// a stale one that let an actor run out of turn reorders the log. In the
// all-tie scripts the turn passes only at finishes and barrier arrivals,
// in id order, so every hand-off goes through those two paths.
TEST(VirtualScheduler, MatchesSequentialReference) {
  for (const bool ties : {false, true}) {
    for (std::size_t actors : {1, 2, 3, 5, 8, 64}) {
      for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const Script s = MakeScript(actors, seed * 100 + actors, ties);
        ASSERT_EQ(RunThreaded(s), RunReference(s))
            << actors << " actors, seed " << seed << (ties ? ", all ties" : "");
      }
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

// An out-of-range or repeated participant would leave the barrier waiting
// for an arrival that never comes.
TEST(VirtualBarrier, RejectsBadParticipantLists) {
  VirtualScheduler sched(3);
  EXPECT_THROW(VirtualBarrier(sched, {}), std::invalid_argument);
  EXPECT_THROW(VirtualBarrier(sched, {0, 3}), std::invalid_argument);
  EXPECT_THROW(VirtualBarrier(sched, {0, 1, 0}), std::invalid_argument);
}

// A non-participant's arrival throws in every build instead of counting,
// which would complete the barrier early and park the last participant
// forever; run() rethrows it once actors 0 and 1 complete the barrier.
TEST(VirtualBarrier, NonParticipantArrivalThrows) {
  VirtualScheduler sched(3);
  VirtualBarrier barrier(sched, {0, 1});
  std::vector<double> synced(2);
  EXPECT_THROW(sched.run([&](std::size_t a) {
                 sched.advance(a, 1.0 + static_cast<double>(a));
                 if (a == 2) {
                   barrier.arrive(a);
                   return;
                 }
                 synced[a] = barrier.arrive(a);
               }),
               std::logic_error);
  EXPECT_DOUBLE_EQ(synced[0], 2.0);
  EXPECT_DOUBLE_EQ(synced[1], 2.0);
  EXPECT_TRUE(sched.all_finished());
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
