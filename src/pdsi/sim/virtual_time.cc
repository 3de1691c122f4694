#include "pdsi/sim/virtual_time.h"

#include <linux/futex.h>
#include <pthread.h>
#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <exception>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

namespace pdsi::sim {

namespace {

/// How schedulers hold or pin the calling thread: the CPU it is pinned to
/// (-1 for none), how many schedulers built on it still hold it, whether
/// it is pinned as an actor until finish(), and the mask and policy it had
/// before, which come back once nothing holds or pins it.
struct ThreadPin {
  int cpu = -1;
  int holds = 0;
  bool actor = false;
  bool saved_ok = false;  ///< `saved` holds the mask to put back
  cpu_set_t saved{};
  bool batched = false;  ///< moved from SCHED_OTHER to SCHED_BATCH
};
thread_local ThreadPin tls_pin;

/// The calling thread's number among the threads that ever held a
/// scheduler, 0 before its first hold. Unlike a pthread_t it is never
/// reused, so a scheduler recognises its holder even after the holder
/// exited and a new thread took its id.
thread_local std::uint64_t tls_holder = 0;
std::atomic<std::uint64_t> g_holders{0};

/// What every destroyed scheduler counted (VirtualScheduler::ProcessTotals).
std::atomic<std::uint64_t> g_admissions{0};
std::atomic<std::uint64_t> g_parks{0};
std::atomic<std::uint64_t> g_pins{0};

/// Sleeps while `word` holds `expected`; returns early on any wake-up or
/// signal, so callers re-check the word.
void FutexWait(std::atomic<std::uint32_t>& word, std::uint32_t expected) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAIT_PRIVATE, expected,
          nullptr, nullptr, 0);
}

/// Wakes one thread sleeping on `word`, if any.
void FutexWake(std::atomic<std::uint32_t>& word) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(&word), FUTEX_WAKE_PRIVATE, 1, nullptr,
          nullptr, 0);
}

/// The calling thread's CPU, or -1 when it cannot be read.
int CurrentCpu() {
  const int cpu = sched_getcpu();
  return cpu >= 0 && cpu < CPU_SETSIZE ? cpu : -1;
}

/// Pins the calling thread to `cpu` (>= 0) unless it is pinned there
/// already. Its first pin moves a SCHED_OTHER thread to SCHED_BATCH, and
/// the first mask it replaces is kept; a thread already alone on `cpu`
/// keeps its mask, so a thread born pinned and batched changes nothing.
/// Returns whether the mask or the policy was changed. A mask that cannot
/// be read is not replaced, one that cannot be set leaves the thread where
/// it runs, and any other policy, or one that cannot be read or set, is
/// left alone; none of this is retried.
bool PinCaller(int cpu) {
  ThreadPin& pin = tls_pin;
  if (pin.cpu == cpu) return false;
  const pthread_t self = pthread_self();
  bool changed = false;
  if (pin.cpu < 0) {
    int policy = 0;
    sched_param param{};
    pin.batched = pthread_getschedparam(self, &policy, &param) == 0 &&
                  policy == SCHED_OTHER &&
                  pthread_setschedparam(self, SCHED_BATCH, &param) == 0;
    changed = pin.batched;
  }
  pin.cpu = cpu;
  cpu_set_t mask;
  if (pthread_getaffinity_np(self, sizeof mask, &mask) != 0 ||
      (CPU_COUNT(&mask) == 1 && CPU_ISSET(cpu, &mask))) {
    return changed;
  }
  if (!pin.saved_ok) {
    pin.saved = mask;
    pin.saved_ok = true;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return pthread_setaffinity_np(self, sizeof one, &one) == 0 || changed;
}

/// Puts back the calling thread's saved mask and policy, if any, and
/// forgets its pin.
void RestoreCaller() {
  ThreadPin& pin = tls_pin;
  const pthread_t self = pthread_self();
  if (pin.saved_ok) pthread_setaffinity_np(self, sizeof pin.saved, &pin.saved);
  if (pin.batched) {
    const sched_param param{};
    pthread_setschedparam(self, SCHED_OTHER, &param);
  }
  pin = ThreadPin{};
}

/// Ends the calling thread's actor pin on `cpu`, if it has one, and
/// restores the thread when no scheduler holds it.
void UnpinCaller(int cpu) {
  ThreadPin& pin = tls_pin;
  if (cpu < 0 || pin.cpu != cpu || !pin.actor) return;
  pin.actor = false;
  if (pin.holds == 0) RestoreCaller();
}

}  // namespace

VirtualScheduler::VirtualScheduler(std::size_t num_actors)
    : times_(num_actors, 0.0), wake_(num_actors), cpu_(num_actors > 1 ? CurrentCpu() : -1) {
  if (num_actors == 0) throw std::invalid_argument("scheduler needs >= 1 actor");
  for (std::size_t a = 0; a < num_actors; ++a) ready_.emplace_hint(ready_.end(), 0.0, a);
  // Last, so a constructor that throws leaves no hold behind.
  if (cpu_ >= 0) {
    PinCaller(cpu_);
    ++tls_pin.holds;
    if (tls_holder == 0) tls_holder = g_holders.fetch_add(1, std::memory_order_relaxed) + 1;
    holder_ = tls_holder;
    held_ = true;
  }
}

VirtualScheduler::~VirtualScheduler() {
  release_hold();
  g_admissions.fetch_add(admissions_, std::memory_order_relaxed);
  g_parks.fetch_add(parks_, std::memory_order_relaxed);
  g_pins.fetch_add(pins_, std::memory_order_relaxed);
}

VirtualScheduler::Totals VirtualScheduler::ProcessTotals() {
  return {g_admissions.load(std::memory_order_relaxed), g_parks.load(std::memory_order_relaxed),
          g_pins.load(std::memory_order_relaxed)};
}

void VirtualScheduler::release_hold() {
  if (holder_ == 0 || holder_ != tls_holder || !held_) return;
  held_ = false;
  if (--tls_pin.holds == 0 && !tls_pin.actor) RestoreCaller();
}

void VirtualScheduler::check_actor(std::size_t actor, const char* what) const {
  if (actor >= times_.size()) {
    throw std::logic_error("VirtualScheduler: unknown actor " + std::to_string(actor) +
                           " " + what);
  }
}

double VirtualScheduler::now(std::size_t actor) const {
  check_actor(actor, "read its time");
  std::lock_guard<std::mutex> lk(mu_);
  return times_[actor];
}

void VirtualScheduler::wait_turn_locked(std::unique_lock<std::mutex>& lk,
                                        std::size_t actor, const char* what) {
  if (actor >= times_.size() || !ready_.contains({times_[actor], actor})) {
    throw std::logic_error("VirtualScheduler: finished or unknown actor " +
                           std::to_string(actor) + " " + what);
  }
  if (cpu_ >= 0 && !(tls_pin.actor && tls_pin.cpu == cpu_)) {
    // The move to cpu_ may wait for that CPU; no lock is held meanwhile.
    lk.unlock();
    const bool moved = PinCaller(cpu_);
    tls_pin.actor = true;
    release_hold();  // the builder's hold goes on as its actor pin
    lk.lock();
    if (moved) ++pins_;
  }
  while (ready_.begin()->second != actor) park(lk, actor);
  ++admissions_;
}

void VirtualScheduler::hand_over(std::unique_lock<std::mutex>& lk) {
  const std::size_t first = ready_.empty() ? times_.size() : ready_.begin()->second;
  lk.unlock();
  if (first < times_.size()) unpark(first);
}

void VirtualScheduler::park(std::unique_lock<std::mutex>& lk, std::size_t actor) {
  // Cleared under the lock: whoever makes this actor first decides so
  // under the lock afterwards, and sets the word only after this store.
  std::atomic<std::uint32_t>& word = wake_[actor];
  word.store(0, std::memory_order_relaxed);
  ++parks_;
  lk.unlock();
  while (word.load(std::memory_order_acquire) == 0) FutexWait(word, 0);
  lk.lock();
}

void VirtualScheduler::unpark(std::size_t actor) {
  wake_[actor].store(1, std::memory_order_release);
  FutexWake(wake_[actor]);
}

void VirtualScheduler::atomically(std::size_t actor,
                                  FunctionRef<double(double)> fn) {
  std::unique_lock<std::mutex> lk(mu_);
  wait_turn_locked(lk, actor, "issued a simulated operation");
  const double now = times_[actor];
  const double next = fn(now);
  assert(next >= now && "virtual time must not go backwards");
  times_[actor] = next;
  // Re-key the actor's own node, so an admission never allocates.
  auto node = ready_.extract(ready_.begin());
  node.value().first = next;
  ready_.insert(std::move(node));
  if (ready_.begin()->second != actor) hand_over(lk);
}

void VirtualScheduler::advance(std::size_t actor, double dt) {
  assert(dt >= 0.0);
  atomically(actor, [dt](double now) { return now + dt; });
}

void VirtualScheduler::finish(std::size_t actor) {
  release_hold();
  check_actor(actor, "finished");
  UnpinCaller(cpu_);
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = ready_.find({times_[actor], actor});
  if (it == ready_.end()) return;
  const bool was_first = it == ready_.begin();
  ready_.erase(it);
  if (was_first) hand_over(lk);
}

double VirtualScheduler::run(const std::function<void(std::size_t actor)>& body) {
  const std::size_t n = num_actors();
  std::vector<std::exception_ptr> errors(n);  // slot a written only by actor a
  // No body starts until every thread exists: if a thread fails to start,
  // the started ones run no body, so none can wait on a missing peer.
  std::latch start(1);
  std::exception_ptr start_error;
  bool all_started = false;  // read only after `start` opens
  std::vector<std::thread> threads;
  threads.reserve(n);
  try {
    for (std::size_t a = 0; a < n; ++a) {
      threads.emplace_back([&, a] {
        start.wait();
        if (all_started) {
          try {
            body(a);
          } catch (...) {
            errors[a] = std::current_exception();
          }
        }
        finish(a);
      });
    }
    all_started = true;
  } catch (...) {
    start_error = std::current_exception();
  }
  // Every actor thread exists; if this thread held the scheduler, they
  // were born on cpu_ as SCHED_BATCH threads.
  release_hold();
  start.count_down();
  for (std::thread& t : threads) t.join();
  if (start_error) std::rethrow_exception(start_error);
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  std::lock_guard<std::mutex> lk(mu_);
  return *std::max_element(times_.begin(), times_.end());
}

bool VirtualScheduler::all_finished() const {
  std::lock_guard<std::mutex> lk(mu_);
  return ready_.empty();
}

namespace {

std::vector<std::size_t> AllActors(std::size_t n) {
  std::vector<std::size_t> v(n);
  std::iota(v.begin(), v.end(), std::size_t{0});
  return v;
}

}  // namespace

VirtualBarrier::VirtualBarrier(VirtualScheduler& sched)
    : VirtualBarrier(sched, AllActors(sched.num_actors())) {}

VirtualBarrier::VirtualBarrier(VirtualScheduler& sched,
                               std::vector<std::size_t> participants)
    : sched_(sched), participants_(std::move(participants)),
      member_(sched.num_actors(), false) {
  if (participants_.empty()) throw std::invalid_argument("empty barrier");
  // A duplicate would make the barrier wait for an arrival that never comes.
  for (std::size_t p : participants_) {
    if (p >= member_.size() || member_[p]) {
      throw std::invalid_argument("VirtualBarrier: participant " + std::to_string(p) +
                                  " is not an actor or is listed twice");
    }
    member_[p] = true;
  }
}

double VirtualBarrier::arrive(std::size_t actor) {
  // Counting a non-participant would complete the barrier one arrival
  // early and leave the last real participant parked forever.
  if (actor >= member_.size() || !member_[actor]) {
    throw std::logic_error("VirtualBarrier: actor " + std::to_string(actor) +
                           " is not a participant");
  }
  std::unique_lock<std::mutex> lk(sched_.mu_);
  // Arrive at this actor's (time, id) turn. Otherwise the last arrival
  // could complete the barrier before or after an equal-time actor's
  // admission depending on thread timing, and resumed participants with
  // smaller ids would be ordered against it nondeterministically.
  sched_.wait_turn_locked(lk, actor, "arrived at a barrier");
  sched_.ready_.erase(sched_.ready_.begin());
  max_time_ = std::max(max_time_, sched_.times_[actor]);
  if (++arrived_ < participants_.size()) {
    // Park: out of the ready set, so non-participants keep moving. After
    // the completion a participant resumes only at its own turn, woken by
    // the change that made it the first ready actor, like an admission.
    // Read the generation before the lock is released: the completion may
    // come before this thread takes the lock again.
    const std::uint64_t my_generation = generation_;
    sched_.hand_over(lk);
    lk.lock();
    while (generation_ == my_generation || sched_.ready_.begin()->second != actor) {
      sched_.park(lk, actor);
    }
    return sched_.times_[actor];
  }
  // Last arriver completes the barrier atomically: everyone resumes at
  // the maximum arrival time, and only the first of them is woken.
  const double synced = max_time_;
  for (std::size_t p : participants_) {
    sched_.times_[p] = synced;
    sched_.ready_.emplace(synced, p);
  }
  arrived_ = 0;
  max_time_ = 0.0;
  ++generation_;
  if (sched_.ready_.begin()->second != actor) sched_.hand_over(lk);
  return synced;
}

}  // namespace pdsi::sim
