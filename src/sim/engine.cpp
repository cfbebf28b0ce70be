#include "sim/engine.hpp"

#include <cxxabi.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <utility>

#include "sim/asan.hpp"

namespace mv2gnc::sim {

std::string format_time(SimTime t) {
  char buf[64];
  if (t < 10'000) {
    std::snprintf(buf, sizeof(buf), "%" PRId64 " ns", t);
  } else if (t < 10'000'000) {
    std::snprintf(buf, sizeof(buf), "%.2f us", to_us(t));
  } else if (t < 10'000'000'000LL) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", to_ms(t));
  } else {
    std::snprintf(buf, sizeof(buf), "%.3f s", to_sec(t));
  }
  return buf;
}

namespace detail {

enum class ProcState { kReady, kRunning, kBlocked, kFinished };

// The C++ runtime's per-thread exception state (Itanium ABI
// __cxa_eh_globals: caught-exception stack, uncaught count). Each fiber
// keeps its own, as a thread would, so a process blocking inside a catch
// handler cannot have its exception popped by another process's handler.
struct EhState {
  void* caught = nullptr;
  unsigned int uncaught = 0;
};

constexpr std::size_t kStackBytes = std::size_t{8} << 20;

struct Process {
  std::string name;
  ProcState state = ProcState::kReady;
  std::string wait_reason;
  std::function<void()> body;
  ucontext_t uc{};       // entry context, used by the first switch in only
  void* regs[5] = {};    // __builtin_setjmp buffer while switched out
  bool entered = false;  // switched into at least once (the host always is)
  EhState eh;
  void* map = nullptr;  // guard page + stack; null when it has none
  std::size_t map_bytes = 0;
  // Stack bounds and saved fake stack for the sanitizer's fiber-switch
  // annotations (the host's bounds are learned when it first switches).
  const void* stack_lo = nullptr;
  std::size_t stack_bytes = 0;
  void* fake_stack = nullptr;

  Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { release_stack(); }

  // MAP_NORESERVE commits pages only as they are touched; the PROT_NONE
  // page below the stack turns an overflow into a fault.
  void map_stack() {
    const auto guard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    map_bytes = guard + kStackBytes;
    map = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1, 0);
    if (map == MAP_FAILED) map = nullptr;
    if (map == nullptr || mprotect(map, guard, PROT_NONE) != 0) {
      release_stack();
      throw std::bad_alloc();
    }
    stack_lo = static_cast<char*>(map) + guard;
    stack_bytes = kStackBytes;
  }
  void release_stack() {
    if (map != nullptr) munmap(map, map_bytes);
    map = nullptr;
  }
};

// Resumes the fiber whose registers `regs` holds. Out of line because GCC
// forbids __builtin_longjmp in the function that set the buffer.
[[noreturn]] __attribute__((noinline)) void jump_into(void** regs) {
  __builtin_longjmp(regs, 1);
}

// Completes a switch on the fiber that just got the CPU and records the
// bounds of the stack it came from (how the host's become known).
void finish_switch([[maybe_unused]] Process* self,
                   [[maybe_unused]] Process* from) {
#ifdef MV2GNC_ASAN
  __sanitizer_finish_switch_fiber(self->fake_stack, &from->stack_lo,
                                  &from->stack_bytes);
#endif
}

}  // namespace detail

// ---------------------------------------------------------------------------
// EventFlag
// ---------------------------------------------------------------------------

bool EventFlag::is_set() const { return set_; }

void EventFlag::trigger() {
  if (set_) return;
  set_ = true;
  for (detail::Process* p : waiters_) engine_.make_ready(p);
  waiters_.clear();
}

void EventFlag::reset() { set_ = false; }

void EventFlag::wait(const std::string& reason) {
  while (!set_) {
    waiters_.push_back(engine_.current());
    engine_.block_current(reason);
  }
}

// ---------------------------------------------------------------------------
// Notifier
// ---------------------------------------------------------------------------

void Notifier::notify() {
  ++pending_;
  if (waiter_ != nullptr) {
    engine_.make_ready(waiter_);
    waiter_ = nullptr;
  }
}

void Notifier::wait(const std::string& reason) {
  while (pending_ == 0) {
    detail::Process* self = engine_.current();
    if (waiter_ != nullptr && waiter_ != self) {
      throw std::logic_error("Notifier: more than one concurrent waiter");
    }
    waiter_ = self;
    engine_.block_current(reason);
  }
  pending_ = 0;
}

bool Notifier::try_consume() {
  if (pending_ == 0) return false;
  pending_ = 0;
  return true;
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine()
    : host_(std::make_unique<detail::Process>()), on_cpu_(host_.get()) {
  host_->entered = true;
}

Engine::~Engine() {
  if (!aborting_) abort_all();
}

void Engine::spawn(std::string name, std::function<void()> body) {
  auto proc = std::make_unique<detail::Process>();
  proc->name = std::move(name);
  proc->body = std::move(body);
  proc->map_stack();
  getcontext(&proc->uc);
  proc->uc.uc_stack.ss_sp = const_cast<void*>(proc->stack_lo);
  proc->uc.uc_stack.ss_size = proc->stack_bytes;
  proc->uc.uc_link = nullptr;  // trampoline() never returns
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&proc->uc, reinterpret_cast<void (*)()>(&Engine::fiber_entry), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
  processes_.push_back(std::move(proc));
  ready_.push_back(processes_.back().get());
}

void Engine::schedule_at(SimTime at, SmallFn action) {
  if (at < now_) at = now_;
  queue_.push(detail::ScheduledEvent{at, seq_++, std::move(action)});
}

void Engine::schedule_after(SimTime delay, SmallFn action) {
  const SimTime at = (delay < 0) ? now_ : now_ + delay;
  queue_.push(detail::ScheduledEvent{at, seq_++, std::move(action)});
}

TimerId Engine::schedule_timer(SimTime at, SmallFn action) {
  if (at < now_) at = now_;
  TimerId id = next_timer_id_++;
  pending_timers_.insert(id);
  queue_.push(detail::ScheduledEvent{at, seq_++, std::move(action), id});
  return id;
}

bool Engine::cancel_timer(TimerId id) { return pending_timers_.erase(id) > 0; }

void Engine::seed_rng(std::uint64_t seed) { rng_.seed(seed); }

std::uint64_t Engine::rand_u64() { return rng_.next(); }

double Engine::rand_uniform() { return rng_.uniform(); }

std::uint64_t Engine::rand_below(std::uint64_t bound) {
  return rng_.below(bound);
}

void Engine::delay(SimTime d) {
  detail::Process* self = current();
  queue_.push(detail::ScheduledEvent{now_ + (d < 0 ? 0 : d), seq_++,
                                     [this, self] { make_ready(self); }});
  block_current("delay");
}

std::string Engine::current_process_name() const {
  return running_ != nullptr ? running_->name : std::string{};
}

detail::Process* Engine::current() const {
  // A process holds the CPU only while its own fiber is on it: from run()'s
  // caller, or from an action dispatched on a blocking process's stack
  // (running_ == nullptr then), there is no process to block.
  if (running_ == nullptr || running_ != on_cpu_) {
    throw std::logic_error(
        "engine blocking primitive called outside a simulated process");
  }
  return running_;
}

void Engine::make_ready(detail::Process* p) {
  if (p->state == detail::ProcState::kFinished) return;
  if (p->state == detail::ProcState::kReady) return;  // already queued
  p->state = detail::ProcState::kReady;
  ready_.push_back(p);
}

void Engine::block_current(const std::string& reason) {
  detail::Process* self = running_;
  self->state = detail::ProcState::kBlocked;
  self->wait_reason = reason;
  running_ = nullptr;
  // Dispatch inline: run due events on this stack and switch straight to
  // the next ready process. If an event makes `self` ready again first, it
  // simply carries on — no switch at all for a block-then-wake-at-once
  // cycle. With nothing left to run, the host (run()) takes over.
  detail::Process* next = dispatch();
  if (next != self) switch_to(next != nullptr ? next : host_.get());
  if (aborting_) throw ProcessAborted{};
}

detail::Process* Engine::dispatch() {
  for (;;) {
    if (aborting_ || first_error_) return nullptr;  // teardown is in charge
    if (!ready_.empty()) {
      detail::Process* p = ready_.front();
      ready_.pop_front();
      if (p->state != detail::ProcState::kReady) continue;
      p->state = detail::ProcState::kRunning;
      running_ = p;
      return p;
    }
    if (!queue_.empty()) {
      detail::ScheduledEvent ev =
          std::move(const_cast<detail::ScheduledEvent&>(queue_.top()));
      queue_.pop();
      if (ev.timer_id != 0) {
        // Canceled timers are discarded without touching the clock: a
        // retransmission timer armed far in the future must not stretch
        // the fault-free run's elapsed time after its transfer completed.
        if (pending_timers_.erase(ev.timer_id) == 0) continue;
      }
      now_ = ev.at;
      ++events_executed_;
      // No process is running while an action executes, so actions may use
      // the public API (trigger flags, notify, schedule) but not block.
      ev.action();
      continue;
    }
    // No runnable process and no pending event: the simulation is over —
    // run() decides whether that means "finished" or "deadlocked".
    return nullptr;
  }
}

void Engine::switch_to(detail::Process* to) {
  detail::Process* from = on_cpu_;
  on_cpu_ = to;
  switched_from_ = from;
  void* eh = abi::__cxa_get_globals();
  std::memcpy(&from->eh, eh, sizeof(detail::EhState));
  std::memcpy(eh, &to->eh, sizeof(detail::EhState));
#ifdef MV2GNC_ASAN
  // A finished process never runs again: let the sanitizer drop its frames.
  __sanitizer_start_switch_fiber(
      from->state == detail::ProcState::kFinished ? nullptr : &from->fake_stack,
      to->stack_lo, to->stack_bytes);
#endif
  // Only registers are saved and restored: the signal mask and the FP
  // control words are thread state, shared by every fiber (engine.hpp).
  // The first switch into a process enters its makecontext'd stack.
  if (__builtin_setjmp(from->regs) == 0) {
    if (!to->entered) {
      to->entered = true;
      setcontext(&to->uc);
    }
    detail::jump_into(to->regs);
  }
  detail::finish_switch(from, switched_from_);
}

void Engine::resume(detail::Process* p) {
  switch_to(p);
  // Back on the host. A finishing process switches here last, so its stack
  // is free to go now rather than at teardown.
  if (switched_from_->state == detail::ProcState::kFinished) {
    switched_from_->release_stack();
  }
}

void Engine::fiber_entry(unsigned hi, unsigned lo) {
  reinterpret_cast<Engine*>((std::uintptr_t{hi} << 32) | lo)->trampoline();
}

void Engine::trampoline() {
  detail::Process* p = on_cpu_;
  detail::finish_switch(p, switched_from_);
  if (!aborting_) {  // a process aborted before it ever ran skips its body
    try {
      p->body();
    } catch (const ProcessAborted&) {
      // Expected during teardown; fall through to finish bookkeeping.
    } catch (...) {
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
  p->state = detail::ProcState::kFinished;
  running_ = nullptr;
  switch_to(host_.get());  // never comes back: resume() frees this stack
  // Returning would end the thread (uc_link is null) and with it the
  // program, with exit status 0: fail loudly instead.
  std::abort();
}

void Engine::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  if (in_run_) throw std::logic_error("Engine::run() is not reentrant");
  in_run_ = true;
  const auto accumulate_wall = [&] {
    wall_seconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  };
  // The processes keep the dispatch loop going among themselves; control
  // comes back here when one finishes, one throws, or nothing is left.
  while (detail::Process* p = dispatch()) resume(p);
  if (first_error_) {
    abort_all();
    in_run_ = false;
    accumulate_wall();
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(err);
  }
  // Quiescent: everything finished, or every live process is stuck.
  bool any_blocked = false;
  std::ostringstream diag;
  for (const auto& p : processes_) {
    if (p->state == detail::ProcState::kBlocked) {
      any_blocked = true;
      diag << "\n  process '" << p->name << "' blocked on: "
           << p->wait_reason;
    }
  }
  if (any_blocked) {
    abort_all();
    in_run_ = false;
    accumulate_wall();
    throw DeadlockError("simulation deadlock at t=" + format_time(now_) +
                        diag.str());
  }
  in_run_ = false;
  accumulate_wall();
}

void Engine::abort_all() {
  aborting_ = true;
  // Resume every live process so its stack unwinds (ProcessAborted) and the
  // destructors of its locals run; one that never started skips its body.
  for (const auto& p : processes_) {
    while (p->state == detail::ProcState::kBlocked ||
           p->state == detail::ProcState::kReady) {
      p->state = detail::ProcState::kRunning;
      running_ = p.get();
      resume(p.get());
    }
  }
}

}  // namespace mv2gnc::sim
