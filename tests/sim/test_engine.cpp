// Unit tests for the discrete-event engine: clock advance, determinism,
// event ordering, flags/notifiers, deadlock detection, error propagation,
// and the fiber stacks processes run on.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include <unistd.h>

namespace sim = mv2gnc::sim;

namespace {

// Virtual and resident size of this process in bytes (/proc/self/statm).
struct MemUse {
  long vm = 0;
  long rss = 0;
};

MemUse mem_use() {
  MemUse m;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return m;
  if (std::fscanf(f, "%ld %ld", &m.vm, &m.rss) != 2) m = {};
  std::fclose(f);
  const long page = sysconf(_SC_PAGESIZE);
  m.vm *= page;
  m.rss *= page;
  return m;
}

constexpr long kStackReservation = 8L << 20;

// Bumps a counter when destroyed: proves teardown ran a destructor.
struct Counted {
  int* n;
  explicit Counted(int* counter) : n(counter) {}
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++*n; }
};

}  // namespace

TEST(SimTime, UnitConstructors) {
  EXPECT_EQ(sim::nanoseconds(5), 5);
  EXPECT_EQ(sim::microseconds(3), 3'000);
  EXPECT_EQ(sim::milliseconds(2), 2'000'000);
  EXPECT_EQ(sim::seconds(1), 1'000'000'000);
}

TEST(SimTime, Conversions) {
  EXPECT_DOUBLE_EQ(sim::to_us(1500), 1.5);
  EXPECT_DOUBLE_EQ(sim::to_ms(2'500'000), 2.5);
  EXPECT_DOUBLE_EQ(sim::to_sec(1'000'000'000), 1.0);
}

TEST(SimTime, Format) {
  EXPECT_EQ(sim::format_time(500), "500 ns");
  EXPECT_EQ(sim::format_time(sim::microseconds(12)), "12.00 us");
  EXPECT_EQ(sim::format_time(sim::milliseconds(40)), "40.00 ms");
  EXPECT_EQ(sim::format_time(sim::seconds(12)), "12.000 s");
}

TEST(Engine, EmptyRunFinishesAtTimeZero) {
  sim::Engine eng;
  eng.run();
  EXPECT_EQ(eng.now(), 0);
}

TEST(Engine, SingleProcessDelayAdvancesClock) {
  sim::Engine eng;
  sim::SimTime observed = -1;
  eng.spawn("p", [&] {
    eng.delay(sim::microseconds(10));
    observed = eng.now();
  });
  eng.run();
  EXPECT_EQ(observed, sim::microseconds(10));
  EXPECT_EQ(eng.now(), sim::microseconds(10));
}

TEST(Engine, ZeroAndNegativeDelaysDoNotMoveClockBackwards) {
  sim::Engine eng;
  eng.spawn("p", [&] {
    eng.delay(sim::microseconds(5));
    eng.delay(0);
    EXPECT_EQ(eng.now(), sim::microseconds(5));
    eng.delay(-100);  // clamped to zero
    EXPECT_EQ(eng.now(), sim::microseconds(5));
  });
  eng.run();
}

TEST(Engine, ProcessesInterleaveByVirtualTime) {
  sim::Engine eng;
  std::vector<int> order;
  eng.spawn("slow", [&] {
    eng.delay(100);
    order.push_back(1);
    eng.delay(100);  // wakes at 200
    order.push_back(3);
  });
  eng.spawn("fast", [&] {
    eng.delay(150);
    order.push_back(2);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, SameTimeEventsRunFifo) {
  sim::Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    eng.spawn("p" + std::to_string(i), [&, i] {
      eng.delay(100);
      order.push_back(i);
    });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(Engine, ScheduleAtRunsActionAtRequestedTime) {
  sim::Engine eng;
  sim::SimTime fired_at = -1;
  eng.schedule_at(sim::microseconds(7), [&] { fired_at = eng.now(); });
  eng.run();
  EXPECT_EQ(fired_at, sim::microseconds(7));
}

TEST(Engine, ScheduleAfterFromProcessIsRelative) {
  sim::Engine eng;
  sim::SimTime fired_at = -1;
  eng.spawn("p", [&] {
    eng.delay(100);
    eng.schedule_after(50, [&] { fired_at = eng.now(); });
    eng.delay(1000);  // keep sim alive past the event
  });
  eng.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(Engine, EventFlagWakesAllWaiters) {
  sim::Engine eng;
  sim::EventFlag flag(eng);
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("waiter" + std::to_string(i), [&] {
      flag.wait();
      ++woken;
      EXPECT_EQ(eng.now(), 500);
    });
  }
  eng.spawn("trigger", [&] {
    eng.delay(500);
    flag.trigger();
  });
  eng.run();
  EXPECT_EQ(woken, 3);
}

TEST(Engine, EventFlagWaitAfterTriggerReturnsImmediately) {
  sim::Engine eng;
  sim::EventFlag flag(eng);
  eng.spawn("p", [&] {
    flag.trigger();
    flag.wait();  // must not block
    EXPECT_EQ(eng.now(), 0);
  });
  eng.run();
}

TEST(Engine, EventFlagResetBlocksAgain) {
  sim::Engine eng;
  sim::EventFlag flag(eng);
  std::vector<sim::SimTime> wakes;
  eng.spawn("waiter", [&] {
    flag.wait();
    wakes.push_back(eng.now());
    flag.reset();
    flag.wait();
    wakes.push_back(eng.now());
  });
  eng.spawn("trigger", [&] {
    eng.delay(10);
    flag.trigger();  // waiter wakes at t=10 and resets the flag
    eng.delay(10);
    flag.trigger();  // flag was reset, so this wakes the waiter again
  });
  eng.run();
  ASSERT_EQ(wakes.size(), 2u);
  EXPECT_EQ(wakes[0], 10);
  EXPECT_EQ(wakes[1], 20);
}

TEST(Engine, NotifierCoalescesPendingNotifications) {
  sim::Engine eng;
  sim::Notifier n(eng);
  int wakeups = 0;
  eng.spawn("consumer", [&] {
    n.wait();  // should see the 3 pre-deposited tokens as one wake
    ++wakeups;
    n.wait();  // blocks until the producer's later notify
    ++wakeups;
    EXPECT_EQ(eng.now(), 100);
  });
  eng.spawn("producer", [&] {
    n.notify();
    n.notify();
    n.notify();
    eng.delay(100);
    n.notify();
  });
  eng.run();
  EXPECT_EQ(wakeups, 2);
}

TEST(Engine, NotifierTryConsume) {
  sim::Engine eng;
  sim::Notifier n(eng);
  eng.spawn("p", [&] {
    EXPECT_FALSE(n.try_consume());
    n.notify();
    n.notify();
    EXPECT_TRUE(n.try_consume());
    EXPECT_FALSE(n.try_consume());
  });
  eng.run();
}

TEST(Engine, DeadlockDetectedWithDiagnostics) {
  sim::Engine eng;
  sim::EventFlag never(eng);
  eng.spawn("stuck-process", [&] { never.wait("waiting-for-godot"); });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const sim::DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("stuck-process"), std::string::npos);
    EXPECT_NE(what.find("waiting-for-godot"), std::string::npos);
  }
}

TEST(Engine, ExceptionInProcessPropagatesToRun) {
  sim::Engine eng;
  eng.spawn("thrower", [&] {
    eng.delay(10);
    throw std::runtime_error("boom");
  });
  eng.spawn("bystander", [&] { eng.delay(sim::seconds(100)); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, SpawnFromRunningProcess) {
  sim::Engine eng;
  std::vector<std::string> log;
  eng.spawn("parent", [&] {
    eng.delay(10);
    eng.spawn("child", [&] {
      log.push_back("child@" + std::to_string(eng.now()));
      eng.delay(5);
      log.push_back("child-done@" + std::to_string(eng.now()));
    });
    log.push_back("parent@" + std::to_string(eng.now()));
    eng.delay(100);
  });
  eng.run();
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log[0], "parent@10");
  EXPECT_EQ(log[1], "child@10");
  EXPECT_EQ(log[2], "child-done@15");
}

TEST(Engine, CurrentProcessNameVisibleInsideProcess) {
  sim::Engine eng;
  std::string seen;
  eng.spawn("rank-3", [&] { seen = eng.current_process_name(); });
  eng.run();
  EXPECT_EQ(seen, "rank-3");
  EXPECT_EQ(eng.current_process_name(), "");
}

TEST(Engine, BlockingPrimitiveOffProcessThrows) {
  sim::Engine eng;
  EXPECT_THROW(eng.delay(10), std::logic_error);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    sim::Engine eng;
    std::vector<std::pair<std::string, sim::SimTime>> log;
    for (int i = 0; i < 5; ++i) {
      eng.spawn("p" + std::to_string(i), [&, i] {
        for (int k = 0; k < 4; ++k) {
          eng.delay(17 * (i + 1));
          log.emplace_back("p" + std::to_string(i), eng.now());
        }
      });
    }
    eng.run();
    return log;
  };
  auto a = run_once();
  auto b = run_once();
  EXPECT_EQ(a, b);
}

TEST(Engine, ManyEventsStressAndCount) {
  sim::Engine eng;
  constexpr int kSteps = 2000;
  eng.spawn("looper", [&] {
    for (int i = 0; i < kSteps; ++i) eng.delay(1);
  });
  eng.run();
  EXPECT_EQ(eng.now(), kSteps);
  EXPECT_GE(eng.events_executed(), static_cast<std::uint64_t>(kSteps));
}

TEST(Engine, SeededRngIsDeterministic) {
  auto draw = [](std::uint64_t seed) {
    sim::Engine eng;
    eng.seed_rng(seed);
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 16; ++i) out.push_back(eng.rand_u64());
    return out;
  };
  EXPECT_EQ(draw(123), draw(123));
  EXPECT_NE(draw(123), draw(124));
}

TEST(Engine, RandHelpersStayInRange) {
  sim::Engine eng;
  eng.seed_rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = eng.rand_uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(eng.rand_below(17), 17u);
  }
  EXPECT_EQ(eng.rand_below(0), 0u);
  EXPECT_EQ(eng.rand_below(1), 0u);
}

TEST(Engine, TimerFiresAtScheduledTime) {
  sim::Engine eng;
  sim::SimTime fired_at = -1;
  eng.spawn("driver", [&] {
    eng.schedule_timer(eng.now() + 500, [&] { fired_at = eng.now(); });
    eng.delay(1000);
  });
  eng.run();
  EXPECT_EQ(fired_at, 500);
}

TEST(Engine, CancelledTimerNeverFiresNorAdvancesClock) {
  sim::Engine eng;
  bool fired = false;
  eng.spawn("driver", [&] {
    const sim::TimerId id =
        eng.schedule_timer(eng.now() + 10'000, [&] { fired = true; });
    eng.delay(100);
    EXPECT_TRUE(eng.cancel_timer(id));
    EXPECT_FALSE(eng.cancel_timer(id));  // second cancel is a no-op
  });
  eng.run();
  EXPECT_FALSE(fired);
  // The orphaned timer event is discarded without dragging the clock out to
  // its deadline.
  EXPECT_EQ(eng.now(), 100);
}

TEST(Engine, ProcessKeepsAMegabyteStackArrayAcrossSwitches) {
  sim::Engine eng;
  std::uint64_t sum = 0;
  eng.spawn("deep", [&] {
    std::array<unsigned char, 1 << 20> buf;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<unsigned char>(i);
    }
    eng.delay(10);  // another process runs in between
    for (unsigned char b : buf) sum += b;
  });
  eng.spawn("other", [&] {
    std::array<unsigned char, 4096> noise;
    noise.fill(0xff);
    eng.delay(5);
    EXPECT_EQ(noise[4095], 0xff);
  });
  eng.run();
  EXPECT_EQ(sum, std::uint64_t{4096} * (255 * 256 / 2));
}

TEST(Engine, ThousandsOfProcessesCommitOnlyTheStackTheyTouch) {
  constexpr int kProcs = 4096;
  const long page = sysconf(_SC_PAGESIZE);
  const MemUse before = mem_use();
  MemUse peak;
  int done = 0;
  {
    sim::Engine eng;
    sim::EventFlag go(eng);
    for (int i = 0; i < kProcs; ++i) {
      eng.spawn("waiter", [&] {
        go.wait();
        ++done;
      });
    }
    // Runs once every other process is blocked on `go`, stacks all live.
    eng.spawn("probe", [&] {
      eng.delay(1);
      peak = mem_use();
      go.trigger();
    });
    eng.run();
    EXPECT_EQ(done, kProcs);
    // Every stack is reserved in full but committed only where touched.
    EXPECT_GE(peak.vm - before.vm, kProcs * kStackReservation);
    EXPECT_LT(peak.rss - before.rss, kProcs * 16 * page);
    // A finished process's stack is unmapped at once, not at teardown.
    EXPECT_LT(mem_use().vm - before.vm, 64L << 20);
  }
}

TEST(Engine, TeardownUnwindsBlockedProcessesAndSkipsUnstartedOnes) {
  int locals_destroyed = 0;
  int captures_destroyed = 0;
  bool unstarted_ran = false;
  const MemUse before = mem_use();
  {
    sim::Engine eng;
    sim::EventFlag never(eng);
    for (int i = 0; i < 3; ++i) {
      eng.spawn("blocked", [&] {
        Counted local(&locals_destroyed);
        never.wait("forever");
        ADD_FAILURE() << "a blocked process resumed normally";
      });
    }
    eng.spawn("thrower", [&] {
      eng.delay(10);
      eng.spawn("unstarted",
                [&, c = std::make_shared<Counted>(&captures_destroyed)] {
                  unstarted_ran = true;
                });
      throw std::runtime_error("boom");
    });
    EXPECT_THROW(eng.run(), std::runtime_error);
    EXPECT_EQ(locals_destroyed, 3);
  }
  {  // Destroyed with a process it never ran.
    sim::Engine never_run;
    never_run.spawn("idle",
                    [&, c = std::make_shared<Counted>(&captures_destroyed)] {
                      unstarted_ran = true;
                    });
  }
  EXPECT_FALSE(unstarted_ran);
  EXPECT_EQ(captures_destroyed, 2);
  // No stack mapping outlives its Engine.
  EXPECT_LT(mem_use().vm - before.vm, kStackReservation);
}

TEST(Engine, BlockingInsideScheduledActionThrows) {
  sim::Engine eng;
  sim::EventFlag flag(eng);
  int threw = 0;
  auto try_to_block = [&] {
    try {
      eng.delay(1);
    } catch (const std::logic_error&) {
      ++threw;
    }
    try {
      flag.wait();
    } catch (const std::logic_error&) {
      ++threw;
    }
  };
  // Dispatched on the blocked process's stack...
  eng.spawn("p", [&] { eng.delay(100); });
  eng.schedule_at(10, try_to_block);
  // ...and by run() itself once every process has finished.
  eng.schedule_at(200, try_to_block);
  eng.run();
  EXPECT_EQ(threw, 4);
}

TEST(Engine, ProcessBlockedInCatchHandlerKeepsItsOwnException) {
  // p0 blocks inside its handler, p1 catches its own exception meanwhile,
  // and p0 resumes first: the exception p0 sees must still be p0's.
  sim::Engine eng;
  std::vector<std::string> seen;
  for (int i = 0; i < 2; ++i) {
    eng.spawn(i == 0 ? "p0" : "p1", [&, i] {
      try {
        throw std::runtime_error(i == 0 ? "from p0" : "from p1");
      } catch (const std::exception&) {
        eng.delay(5 + 5 * i);
        try {
          std::rethrow_exception(std::current_exception());
        } catch (const std::exception& e) {
          seen.emplace_back(e.what());
        }
      }
    });
  }
  eng.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"from p0", "from p1"}));
}

TEST(Engine, RingHandOffKeepsEachFibersLocalsAndStack) {
  // Three processes pass a token round a ring 100k times; every wait()
  // blocks, so each lap is three fiber switches. After each switch a
  // process checks that its int and double locals and a pointer into its
  // own stack are what it left there.
  constexpr int kProcs = 3;
  constexpr int kLaps = 100'000;
  sim::Engine eng;
  std::vector<std::unique_ptr<sim::Notifier>> turn;
  for (int i = 0; i < kProcs; ++i) {
    turn.push_back(std::make_unique<sim::Notifier>(eng));
  }
  std::array<int, kProcs> laps{};
  std::array<int, kProcs> corrupt{};
  std::array<const int*, kProcs> frame{};
  for (int id = 0; id < kProcs; ++id) {
    eng.spawn("ring-" + std::to_string(id), [&, id] {
      int count = id * 1'000'000;
      double sum = 0.5 * id;
      int marker = 7 + id;
      frame[id] = &marker;  // kept outside the stack, so not re-derived
      // The last one to start passes the first token: by then every other
      // process is blocked, so no wait() below finds a token pending.
      if (id == kProcs - 1) turn[0]->notify();
      for (int lap = 0; lap < kLaps; ++lap) {
        turn[id]->wait();
        if (count != id * 1'000'000 + lap || sum != 0.5 * id + lap ||
            frame[id] != &marker || marker != 7 + id) {
          ++corrupt[id];
        }
        ++count;
        sum += 1.0;
        ++laps[id];
        turn[(id + 1) % kProcs]->notify();
      }
    });
  }
  eng.run();
  for (int id = 0; id < kProcs; ++id) {
    EXPECT_EQ(laps[id], kLaps) << id;
    EXPECT_EQ(corrupt[id], 0) << id;
    EXPECT_NE(frame[id], frame[(id + 1) % kProcs]);
  }
}

TEST(Engine, ProcessFirstEnteredAfterThousandsOfSwitchesByOthers) {
  // Two processes trade the CPU about 10k times before one of them spawns a
  // third; its first switch in (onto a fresh stack) and every switch after
  // must leave all three intact.
  constexpr int kRounds = 5'000;
  constexpr int kLateRounds = 50;
  sim::Engine eng;
  int corrupt = 0;
  int late_rounds = 0;
  sim::SimTime late_start = -1;
  std::array<const double*, 3> frame{};
  // Each round is one delay(1), during which another process runs.
  std::function<void(int, int)> body = [&](int id, int rounds) {
    const double step = 0.25 * (id + 1);
    double sum = 0.0;
    frame[id] = &sum;
    for (int r = 0; r < rounds; ++r) {
      eng.delay(1);
      if (sum != step * r || frame[id] != &sum) ++corrupt;
      sum += step;
      if (id == 2) ++late_rounds;
      if (id == 0 && r == kRounds - kLateRounds) {
        eng.spawn("late", [&] {
          late_start = eng.now();
          body(2, kLateRounds);
        });
      }
    }
  };
  eng.spawn("early-0", [&] { body(0, kRounds); });
  eng.spawn("early-1", [&] { body(1, kRounds); });
  eng.run();
  EXPECT_EQ(late_start, kRounds - kLateRounds + 1);
  EXPECT_EQ(late_rounds, kLateRounds);
  EXPECT_EQ(corrupt, 0);
  EXPECT_EQ(eng.now(), late_start + kLateRounds);
}

TEST(Engine, ProcessFinishingWhileOthersAreSuspendedLeavesThemIntact) {
  // Both waiters are parked inside a switch when the trigger finishes and
  // its stack is unmapped; a process spawned after that scribbles over a
  // fresh stack before the waiters resume.
  constexpr int kWaiters = 2;
  constexpr int kAfter = 3;
  sim::Engine eng;
  sim::EventFlag go(eng);
  std::array<int, kWaiters> intact{};
  std::array<const int*, kWaiters> frame{};
  bool finished = false;
  for (int id = 0; id < kWaiters; ++id) {
    eng.spawn("waiter-" + std::to_string(id), [&, id] {
      int count = 10 + id;
      double x = 1.5 * (id + 1);
      std::array<int, 256> local;
      local.fill(id);
      frame[id] = local.data();
      go.wait();
      for (int r = 0; r < kAfter; ++r) {
        bool same = count == 10 + id + r && x == 1.5 * (id + 1) + r &&
                    frame[id] == local.data();
        for (int v : local) same = same && v == id;
        intact[id] += same;
        ++count;
        x += 1.0;
        eng.delay(1);
      }
    });
  }
  eng.spawn("trigger", [&] {
    go.trigger();
    eng.spawn("scribbler", [&] {
      std::array<unsigned char, 64 * 1024> junk;
      junk.fill(0xee);
      eng.delay(1);
      EXPECT_EQ(junk[junk.size() - 1], 0xee);
    });
    finished = true;
  });
  eng.run();
  EXPECT_TRUE(finished);
  for (int id = 0; id < kWaiters; ++id) EXPECT_EQ(intact[id], kAfter) << id;
}
