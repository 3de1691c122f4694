#include "pdsi/sim/virtual_time.h"

#include <algorithm>
#include <cassert>
#include <exception>
#include <latch>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

namespace pdsi::sim {

VirtualScheduler::VirtualScheduler(std::size_t num_actors)
    : times_(num_actors, 0.0), wake_(num_actors) {
  if (num_actors == 0) throw std::invalid_argument("scheduler needs >= 1 actor");
  for (std::size_t a = 0; a < num_actors; ++a) ready_.emplace_hint(ready_.end(), 0.0, a);
}

double VirtualScheduler::now(std::size_t actor) const {
  std::lock_guard<std::mutex> lk(mu_);
  return times_[actor];
}

void VirtualScheduler::wait_turn_locked(std::unique_lock<std::mutex>& lk,
                                        std::size_t actor, const char* what) {
  if (actor >= times_.size() || !ready_.contains({times_[actor], actor})) {
    throw std::logic_error("VirtualScheduler: finished or unknown actor " +
                           std::to_string(actor) + " " + what);
  }
  wake_[actor].wait(lk, [&] { return ready_.begin()->second == actor; });
}

void VirtualScheduler::wake_first_locked() {
  if (!ready_.empty()) wake_[ready_.begin()->second].notify_one();
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
  if (ready_.begin()->second != actor) wake_first_locked();
}

void VirtualScheduler::advance(std::size_t actor, double dt) {
  assert(dt >= 0.0);
  atomically(actor, [dt](double now) { return now + dt; });
}

void VirtualScheduler::finish(std::size_t actor) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = ready_.find({times_[actor], actor});
  if (it == ready_.end()) return;
  const bool was_first = it == ready_.begin();
  ready_.erase(it);
  if (was_first) wake_first_locked();
}

double VirtualScheduler::run(const std::function<void(std::size_t actor)>& body) {
  const std::size_t n = num_actors();
  std::vector<std::exception_ptr> errors(n);  // slot a written only by actor a
  // No body starts until every thread exists: if a thread fails to start,
  // the started ones run no body, so none can wait on a missing peer.
  std::latch start(1);
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
    start.count_down();
    for (std::thread& t : threads) t.join();
    throw;
  }
  start.count_down();
  for (std::thread& t : threads) t.join();
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
    : sched_(sched), participants_(std::move(participants)) {
  if (participants_.empty()) throw std::invalid_argument("empty barrier");
}

double VirtualBarrier::arrive(std::size_t actor) {
  std::unique_lock<std::mutex> lk(sched_.mu_);
  assert(std::find(participants_.begin(), participants_.end(), actor) !=
         participants_.end());
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
    sched_.wake_first_locked();
    const std::uint64_t my_generation = generation_;
    sched_.wake_[actor].wait(lk, [&] {
      return generation_ != my_generation &&
             sched_.ready_.begin()->second == actor;
    });
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
  if (sched_.ready_.begin()->second != actor) sched_.wake_first_locked();
  return synced;
}

}  // namespace pdsi::sim
