#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/stack_pool.hpp"
#include "sim/time.hpp"

using namespace slm;
using namespace slm::sim;
using namespace slm::time_literals;

TEST(Kernel, StartsAtTimeZero) {
    Kernel k;
    EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(Kernel, RunWithNoProcessesTerminates) {
    Kernel k;
    k.run();
    EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(Kernel, SingleProcessRunsToCompletion) {
    Kernel k;
    bool ran = false;
    k.spawn("p", [&] { ran = true; });
    k.run();
    EXPECT_TRUE(ran);
}

TEST(Kernel, WaitforAdvancesTime) {
    Kernel k;
    SimTime seen;
    k.spawn("p", [&] {
        k.waitfor(10_us);
        seen = k.now();
    });
    k.run();
    EXPECT_EQ(seen, 10_us);
    EXPECT_EQ(k.now(), 10_us);
}

TEST(Kernel, SequentialWaitforsAccumulate) {
    Kernel k;
    k.spawn("p", [&] {
        k.waitfor(3_us);
        k.waitfor(4_us);
        k.waitfor(5_us);
    });
    k.run();
    EXPECT_EQ(k.now(), 12_us);
}

TEST(Kernel, ParallelWaitforsOverlap) {
    // Two concurrent processes delay "in parallel": total simulated time is
    // the max, not the sum — the defining property of the unscheduled model.
    Kernel k;
    k.spawn("a", [&] { k.waitfor(30_us); });
    k.spawn("b", [&] { k.waitfor(20_us); });
    k.run();
    EXPECT_EQ(k.now(), 30_us);
}

TEST(Kernel, ProcessesRunInSpawnOrder) {
    Kernel k;
    std::vector<std::string> order;
    for (const char* n : {"a", "b", "c"}) {
        k.spawn(n, [&order, n] { order.push_back(n); });
    }
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Kernel, SimultaneousTimeoutsFireInScheduleOrder) {
    Kernel k;
    std::vector<std::string> order;
    k.spawn("a", [&] {
        k.waitfor(5_us);
        order.push_back("a");
    });
    k.spawn("b", [&] {
        k.waitfor(5_us);
        order.push_back("b");
    });
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b"}));
}

TEST(Kernel, ScheduleControllerSeesGoldenChoicePoints) {
    // Every delta-order choice point offered (live runnables only, FIFO
    // front first) and the order a round-robin answer produces, pinned
    // against the golden list.
    struct Recorder final : ScheduleController {
        std::size_t choose(const SchedulePoint& pt) override {
            const std::size_t choice = seen.size() % pt.candidates.size();
            std::string s = std::string(to_string(pt.kind)) + '@' +
                            std::to_string(pt.now.ns()) + ':';
            for (std::size_t i = 0; i < pt.candidates.size(); ++i) {
                s += (i == 0 ? "" : ",") + pt.candidates[i];
            }
            seen.push_back(s + "->" + std::to_string(choice));
            return choice;
        }
        std::vector<std::string> seen;
    } rec;
    Kernel k;
    k.set_schedule_controller(&rec);
    std::vector<std::string> order;
    Event e{k, "e"};
    for (const char* name : {"a", "b", "c"}) {
        k.spawn(name, [&k, &order, &e, name] {
            k.waitfor(5_us);
            order.push_back(std::string(name) + "0");
            k.wait(e);
            order.push_back(std::string(name) + "1");
        });
    }
    k.spawn("n", [&k, &e] {
        k.waitfor(5_us);
        k.notify(e);
    });
    k.run();
    const std::vector<std::string> golden = {
        "delta_order@0:a,b,c,n->0",    "delta_order@0:b,c,n->1",
        "delta_order@0:b,n->0",        "delta_order@5000:a,c,b,n->3",
        "delta_order@5000:a,c,b->1",   "delta_order@5000:a,b->1",
        "delta_order@5000:c,b,a->0",   "delta_order@5000:b,a->1",
    };
    EXPECT_EQ(rec.seen, golden);
    EXPECT_EQ(order, (std::vector<std::string>{"c0", "b0", "a0", "c1", "a1", "b1"}));
}

TEST(Kernel, NotifyWakesWaiter) {
    Kernel k;
    Event e{k, "e"};
    bool woke = false;
    k.spawn("waiter", [&] {
        k.wait(e);
        woke = true;
    });
    k.spawn("notifier", [&] {
        k.waitfor(1_us);
        k.notify(e);
    });
    k.run();
    EXPECT_TRUE(woke);
    EXPECT_EQ(k.now(), 1_us);
}

TEST(Kernel, NotifyWakesAllWaiters) {
    Kernel k;
    Event e{k, "e"};
    int woke = 0;
    for (int i = 0; i < 5; ++i) {
        k.spawn("w" + std::to_string(i), [&] {
            k.wait(e);
            ++woke;
        });
    }
    k.spawn("notifier", [&] {
        k.waitfor(1_us);
        k.notify(e);
    });
    k.run();
    EXPECT_EQ(woke, 5);
}

TEST(Kernel, NotifyIsStickyWithinDelta) {
    // SpecC semantics: a wait() later in the same delta cycle sees the
    // notification and does not block.
    Kernel k;
    Event e{k, "e"};
    bool continued = false;
    k.spawn("notifier", [&] { k.notify(e); });
    k.spawn("late_waiter", [&] {
        k.wait(e);  // runs in the same delta as the notify
        continued = true;
    });
    k.run();
    EXPECT_TRUE(continued);
}

TEST(Kernel, NotifyIsLostAcrossTime) {
    // A notification in an earlier time step does not satisfy a later wait.
    Kernel k;
    Event e{k, "e"};
    bool woke = false;
    k.spawn("notifier", [&] { k.notify(e); });
    k.spawn("late_waiter", [&] {
        k.waitfor(1_us);  // move past the delta where the notify happened
        k.wait(e);
        woke = true;
    });
    k.run();
    EXPECT_FALSE(woke);
    EXPECT_EQ(k.blocked_processes().size(), 1u);
}

TEST(Kernel, NotifyIsLostAcrossDelta) {
    Kernel k;
    Event e{k, "e"};
    bool woke = false;
    k.spawn("notifier", [&] { k.notify(e); });
    k.spawn("late_waiter", [&] {
        k.waitfor(SimTime::zero());  // next delta, same time
        k.wait(e);
        woke = true;
    });
    k.run();
    EXPECT_FALSE(woke);
}

TEST(Kernel, WaitforZeroYieldsToNextDelta) {
    Kernel k;
    std::vector<int> order;
    k.spawn("a", [&] {
        k.waitfor(SimTime::zero());
        order.push_back(1);
    });
    k.spawn("b", [&] { order.push_back(0); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
    EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(Kernel, YieldRunsAfterOtherRunnables) {
    Kernel k;
    std::vector<int> order;
    k.spawn("a", [&] {
        k.yield();
        order.push_back(1);
    });
    k.spawn("b", [&] { order.push_back(0); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(Kernel, ParForksAndJoins) {
    Kernel k;
    std::vector<std::string> log;
    k.spawn("parent", [&] {
        log.push_back("pre");
        k.par({[&] {
                   k.waitfor(5_us);
                   log.push_back("c1");
               },
               [&] {
                   k.waitfor(3_us);
                   log.push_back("c2");
               }});
        log.push_back("post");
    });
    k.run();
    EXPECT_EQ(log, (std::vector<std::string>{"pre", "c2", "c1", "post"}));
    EXPECT_EQ(k.now(), 5_us);  // children overlap
}

TEST(Kernel, ParChildrenSeeParent) {
    Kernel k;
    const Process* parent_of_child = nullptr;
    Process* parent = k.spawn("parent", [&] {
        k.par({[&] { parent_of_child = this_process()->parent(); }});
    });
    k.run();
    EXPECT_EQ(parent_of_child, parent);
}

TEST(Kernel, NestedPar) {
    Kernel k;
    int leaves = 0;
    k.spawn("root", [&] {
        k.par({[&] {
                   k.par({[&] { ++leaves; }, [&] { ++leaves; }});
               },
               [&] {
                   k.par({[&] { ++leaves; }, [&] { ++leaves; }});
               }});
    });
    k.run();
    EXPECT_EQ(leaves, 4);
}

TEST(Kernel, EmptyParReturnsImmediately) {
    Kernel k;
    bool after = false;
    k.spawn("p", [&] {
        k.par(std::vector<Branch>{});
        after = true;
    });
    k.run();
    EXPECT_TRUE(after);
}

TEST(Kernel, NamedParBranches) {
    Kernel k;
    std::vector<std::string> names;
    k.spawn("p", [&] {
        std::vector<Branch> branches;
        branches.push_back({"left", [&] { names.push_back(this_process()->name()); }});
        branches.push_back({"right", [&] { names.push_back(this_process()->name()); }});
        k.par(std::move(branches));
    });
    k.run();
    EXPECT_EQ(names, (std::vector<std::string>{"left", "right"}));
}

TEST(Kernel, JoinFinishedProcessReturnsImmediately) {
    Kernel k;
    bool joined = false;
    Process* worker = k.spawn("worker", [] {});
    k.spawn("joiner", [&] {
        k.waitfor(1_us);  // worker finishes first
        k.join(*worker);
        joined = true;
    });
    k.run();
    EXPECT_TRUE(joined);
}

TEST(Kernel, JoinBlocksUntilDone) {
    Kernel k;
    SimTime join_time;
    Process* worker = k.spawn("worker", [&] { k.waitfor(10_us); });
    k.spawn("joiner", [&] {
        k.join(*worker);
        join_time = k.now();
    });
    k.run();
    EXPECT_EQ(join_time, 10_us);
}

TEST(Kernel, SpawnDuringRunExecutesChild) {
    Kernel k;
    bool child_ran = false;
    k.spawn("parent", [&] {
        Process* c = k.spawn("child", [&] { child_ran = true; });
        k.join(*c);
    });
    k.run();
    EXPECT_TRUE(child_ran);
}

TEST(Kernel, RunUntilStopsAtLimit) {
    Kernel k;
    int ticks = 0;
    k.spawn("ticker", [&] {
        for (int i = 0; i < 100; ++i) {
            k.waitfor(1_ms);
            ++ticks;
        }
    });
    const bool more = k.run_until(5_ms);
    EXPECT_TRUE(more);
    EXPECT_EQ(ticks, 5);
    EXPECT_EQ(k.now(), 5_ms);
}

TEST(Kernel, RunUntilCanResume) {
    Kernel k;
    int ticks = 0;
    k.spawn("ticker", [&] {
        for (int i = 0; i < 10; ++i) {
            k.waitfor(1_ms);
            ++ticks;
        }
    });
    EXPECT_TRUE(k.run_until(3_ms));
    EXPECT_EQ(ticks, 3);
    EXPECT_FALSE(k.run_until(20_ms));
    EXPECT_EQ(ticks, 10);
    EXPECT_EQ(k.now(), 20_ms);
}

TEST(Kernel, RunUntilWithNoActivityAdvancesClock) {
    Kernel k;
    EXPECT_FALSE(k.run_until(7_ms));
    EXPECT_EQ(k.now(), 7_ms);
}

TEST(Kernel, KillReadyProcessUnwindsBeforeBody) {
    Kernel k;
    bool ran = false;
    Process* victim = k.spawn("victim", [&] { ran = true; });
    k.kill(*victim);
    k.run();
    EXPECT_FALSE(ran);
    EXPECT_EQ(victim->state(), ProcState::Killed);
}

TEST(Kernel, KillWaitingProcessRunsDestructors) {
    Kernel k;
    Event e{k, "never"};
    bool cleaned_up = false;
    struct Raii {
        bool& flag;
        ~Raii() { flag = true; }
    };
    Process* victim = k.spawn("victim", [&] {
        Raii raii{cleaned_up};
        k.wait(e);
    });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*victim);
    });
    k.run();
    EXPECT_TRUE(cleaned_up);
    EXPECT_EQ(victim->state(), ProcState::Killed);
}

TEST(Kernel, KillSleepingProcessCancelsTimeout) {
    Kernel k;
    bool resumed = false;
    Process* victim = k.spawn("victim", [&] {
        k.waitfor(100_ms);
        resumed = true;
    });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*victim);
    });
    k.run();
    EXPECT_FALSE(resumed);
    // The victim's 100 ms timeout must not drag simulated time forward.
    EXPECT_EQ(k.now(), 1_us);
}

TEST(Kernel, SelfKillUnwinds) {
    Kernel k;
    bool after = false;
    Process* p = k.spawn("p", [&] {
        k.kill(*this_process());
        after = true;
    });
    k.run();
    EXPECT_FALSE(after);
    EXPECT_EQ(p->state(), ProcState::Killed);
}

TEST(Kernel, KillIsIdempotent) {
    Kernel k;
    Event e{k, "never"};
    Process* victim = k.spawn("victim", [&] { k.wait(e); });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*victim);
        k.kill(*victim);
    });
    k.run();
    EXPECT_EQ(victim->state(), ProcState::Killed);
    k.kill(*victim);  // killing a dead process is a no-op
}

TEST(Kernel, KilledParentStopsButChildrenFinish) {
    Kernel k;
    bool child_done = false;
    bool parent_post = false;
    Process* parent = k.spawn("parent", [&] {
        k.par({[&] {
            k.waitfor(10_us);
            child_done = true;
        }});
        parent_post = true;
    });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*parent);
    });
    k.run();
    EXPECT_TRUE(child_done);
    EXPECT_FALSE(parent_post);
}

TEST(Kernel, DeadlockedProcessesAreReported) {
    Kernel k;
    Event e1{k, "e1"}, e2{k, "e2"};
    k.spawn("a", [&] {
        k.wait(e1);
        k.notify(e2);
    });
    k.spawn("b", [&] {
        k.wait(e2);
        k.notify(e1);
    });
    k.run();
    EXPECT_EQ(k.blocked_processes().size(), 2u);
}

TEST(Kernel, StatsCountActivity) {
    Kernel k;
    Event e{k, "e"};
    k.spawn("a", [&] {
        k.waitfor(1_us);
        k.notify(e);
    });
    k.spawn("b", [&] { k.wait(e); });
    k.run();
    const KernelStats& s = k.stats();
    EXPECT_EQ(s.processes_created, 2u);
    EXPECT_GE(s.process_activations, 3u);
    EXPECT_EQ(s.events_notified, 1u);
    EXPECT_EQ(s.time_advances, 1u);
    EXPECT_GE(s.delta_cycles, 2u);
}

TEST(Kernel, ObserverSeesStateTransitions) {
    struct Recorder : KernelObserver {
        std::vector<std::string> log;
        void on_process_state(const Process& p, ProcState, ProcState to) override {
            log.push_back(p.name() + ":" + to_string(to));
        }
    } rec;
    Kernel k;
    k.add_observer(&rec);
    k.spawn("p", [&] { k.waitfor(1_us); });
    k.run();
    EXPECT_EQ(rec.log, (std::vector<std::string>{"p:Ready", "p:Running", "p:WaitingTime",
                                                 "p:Ready", "p:Running", "p:Done"}));
}

TEST(Kernel, ObserverSeesTimeAdvances) {
    struct Recorder : KernelObserver {
        std::vector<SimTime> times;
        void on_time_advance(SimTime t) override { times.push_back(t); }
    } rec;
    Kernel k;
    k.add_observer(&rec);
    k.spawn("p", [&] {
        k.waitfor(2_us);
        k.waitfor(3_us);
    });
    k.run();
    EXPECT_EQ(rec.times, (std::vector<SimTime>{2_us, 5_us}));
}

TEST(Kernel, ThisKernelAndThisProcess) {
    Kernel k;
    Kernel* seen_kernel = nullptr;
    Process* seen_process = nullptr;
    Process* p = k.spawn("p", [&] {
        seen_kernel = &this_kernel();
        seen_process = this_process();
    });
    k.run();
    EXPECT_EQ(seen_kernel, &k);
    EXPECT_EQ(seen_process, p);
    EXPECT_EQ(this_process(), nullptr);
}

TEST(Kernel, ManyProcessesManySwitches) {
    // Stress: 200 processes ping-ponging through time steps stay deterministic.
    Kernel k;
    constexpr int kProcs = 200;
    constexpr int kSteps = 50;
    std::uint64_t total = 0;
    for (int i = 0; i < kProcs; ++i) {
        k.spawn("p" + std::to_string(i), [&, i] {
            for (int s = 0; s < kSteps; ++s) {
                k.waitfor(nanoseconds(static_cast<std::uint64_t>(i) + 1));
                ++total;
            }
        });
    }
    k.run();
    EXPECT_EQ(total, static_cast<std::uint64_t>(kProcs) * kSteps);
    EXPECT_EQ(k.now(), nanoseconds(kProcs * kSteps));
}

TEST(Kernel, DeterministicTraceAcrossRuns) {
    auto run_once = [] {
        Kernel k;
        std::vector<std::string> log;
        Event e{k, "e"};
        k.spawn("a", [&] {
            for (int i = 0; i < 10; ++i) {
                k.waitfor(3_us);
                log.push_back("a" + std::to_string(i));
                k.notify(e);
            }
        });
        k.spawn("b", [&] {
            for (int i = 0; i < 5; ++i) {
                k.wait(e);
                log.push_back("b" + std::to_string(i));
                k.waitfor(4_us);
            }
        });
        k.run();
        return log;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Kernel, EventWaiterCountTracksBlockedProcesses) {
    Kernel k;
    Event e{k, "e"};
    k.spawn("w1", [&] { k.wait(e); });
    k.spawn("w2", [&] { k.wait(e); });
    k.spawn("check", [&] {
        k.waitfor(1_us);
        EXPECT_EQ(e.waiter_count(), 2u);
        k.notify(e);
    });
    k.run();
    EXPECT_EQ(e.waiter_count(), 0u);
}

// --- fast-context engine regressions -------------------------------------

TEST(Kernel, BackendResolvesToSomethingRunnable) {
    Kernel k;
    // Auto must resolve to a concrete backend, never stay Auto.
    EXPECT_NE(k.backend(), ContextBackend::Auto);
    if (!fast_context_compiled()) {
        EXPECT_EQ(k.backend(), ContextBackend::Ucontext);
    }
}

TEST(Kernel, TinyStackSizeIsClampedToMinimum) {
    // A stack_size below the documented minimum is clamped, not rejected:
    // the process still runs with at least kMinStackSize bytes.
    KernelConfig cfg;
    cfg.stack_size = 1;  // absurdly small; would fault if honored literally
    Kernel k{cfg};
    bool ran = false;
    k.spawn("p", [&] {
        // Burn some genuine stack to prove the clamped size is usable.
        volatile char burn[4096];
        burn[0] = 1;
        burn[sizeof(burn) - 1] = 1;
        ran = burn[0] == 1 && burn[sizeof(burn) - 1] == 1;
    });
    // The stack is acquired at spawn time, already clamped.
    EXPECT_GE(k.stats().stack_bytes_in_use, KernelConfig::kMinStackSize);
    k.run();
    EXPECT_TRUE(ran);
}

TEST(Kernel, StackPoolRecyclesAcrossWaves) {
    Kernel k;
    for (int wave = 0; wave < 3; ++wave) {
        for (int i = 0; i < 8; ++i) {
            k.spawn("p", [] {});
        }
        k.run();
    }
    // Waves 2 and 3 must be served from the pool's free list.
    EXPECT_EQ(k.stats().processes_created, 24u);
    EXPECT_GE(k.stats().stacks_recycled, 16u);
    // All short-lived stacks were returned; only the pool holds them now.
    EXPECT_EQ(k.stats().stack_bytes_in_use, 0u);
}

TEST(Kernel, KillDuringSwitchOnRecycledStackRunsDestructors) {
    // Regression for the stack pool: process A finishes and its stack returns
    // to the pool; process B is spawned onto that recycled stack, blocks (so
    // its saved context lives in the recycled memory), and is then killed.
    // The ProcessKilled unwinding must run B's destructors on that stack.
    Kernel k;
    Event e{k, "never"};
    bool a_done = false;
    bool b_cleaned_up = false;
    bool b_resumed = false;
    struct Raii {
        bool& flag;
        ~Raii() { flag = true; }
    };
    k.spawn("a", [&] { a_done = true; });
    k.run();  // A finishes; its stack is now on the pool free list
    ASSERT_TRUE(a_done);
    ASSERT_EQ(k.stats().stack_bytes_in_use, 0u);  // A's stack is pooled, not live

    Process* b = k.spawn("b", [&] {
        Raii raii{b_cleaned_up};
        k.wait(e);  // suspend mid-body: context saved on the recycled stack
        b_resumed = true;
    });
    k.spawn("killer", [&] {
        k.waitfor(1_us);
        k.kill(*b);
    });
    k.run();
    EXPECT_GE(k.stats().stacks_recycled, 1u);  // B really reused A's stack
    EXPECT_TRUE(b_cleaned_up);
    EXPECT_FALSE(b_resumed);
    EXPECT_EQ(b->state(), ProcState::Killed);
}

TEST(Kernel, GuardPagesBackendRunsProcesses) {
    KernelConfig cfg;
    cfg.guard_pages = true;
    Kernel k{cfg};
    int sum = 0;
    for (int i = 0; i < 4; ++i) {
        k.spawn("p", [&sum, i] { sum += i; });
    }
    k.run();
    EXPECT_EQ(sum, 6);
    // Guarded stacks recycle through the pool exactly like plain ones.
    for (int i = 0; i < 4; ++i) {
        k.spawn("q", [&sum] { ++sum; });
    }
    k.run();
    EXPECT_EQ(sum, 10);
    EXPECT_GE(k.stats().stacks_recycled, 4u);
}

TEST(Kernel, ExplicitUcontextBackendMatchesFastSemantics) {
    // The same program must produce identical scheduling under both backends.
    auto run_with = [](ContextBackend backend) {
        KernelConfig cfg;
        cfg.backend = backend;
        Kernel k{cfg};
        std::vector<std::string> log;
        Event e{k, "e"};
        k.spawn("a", [&] {
            log.push_back("a0");
            k.notify(e);
            k.waitfor(2_us);
            log.push_back("a1");
        });
        k.spawn("b", [&] {
            k.wait(e);
            log.push_back("b0");
            k.waitfor(1_us);
            log.push_back("b1");
        });
        k.run();
        return log;
    };
    const auto uc = run_with(ContextBackend::Ucontext);
    const auto fast = run_with(ContextBackend::Fast);  // degrades if absent
    EXPECT_EQ(uc, fast);
    EXPECT_EQ(uc, (std::vector<std::string>{"a0", "b0", "b1", "a1"}));
}

// ---- One-shot timers (post_at / cancel_timer) ----

TEST(Kernel, PostAtFiresAtRequestedTime) {
    Kernel k;
    SimTime fired_at = SimTime::max();
    k.post_at(10_us, [&] { fired_at = k.now(); });
    k.spawn("p", [&] { k.waitfor(20_us); });
    k.run();
    EXPECT_EQ(fired_at, 10_us);
}

TEST(Kernel, TimerCallbackRunsInSchedulerContext) {
    Kernel k;
    bool saw_null_process = false;
    k.post_at(5_us, [&] { saw_null_process = this_process() == nullptr; });
    k.spawn("p", [&] { k.waitfor(10_us); });
    k.run();
    EXPECT_TRUE(saw_null_process);
}

TEST(Kernel, TimerFiresBeforeSameInstantProcessWakeup) {
    Kernel k;
    std::vector<std::string> log;
    k.post_at(10_us, [&] { log.push_back("timer"); });
    k.spawn("p", [&] {
        k.waitfor(10_us);
        log.push_back("process");
    });
    k.run();
    EXPECT_EQ(log, (std::vector<std::string>{"timer", "process"}));
}

TEST(Kernel, SameInstantTimersFireInPostingOrder) {
    Kernel k;
    std::vector<int> order;
    k.post_at(5_us, [&] { order.push_back(1); });
    k.post_at(5_us, [&] { order.push_back(2); });
    k.post_at(5_us, [&] { order.push_back(3); });
    k.spawn("p", [&] { k.waitfor(10_us); });
    k.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, CancelTimerPreventsFiring) {
    Kernel k;
    bool fired = false;
    const Kernel::TimerId id = k.post_at(10_us, [&] { fired = true; });
    EXPECT_TRUE(k.timer_pending(id));
    k.cancel_timer(id);
    EXPECT_FALSE(k.timer_pending(id));
    k.spawn("p", [&] { k.waitfor(20_us); });
    k.run();
    EXPECT_FALSE(fired);
}

TEST(Kernel, TimerPendingClearsAfterFiring) {
    Kernel k;
    const Kernel::TimerId id = k.post_at(5_us, [] {});
    k.spawn("p", [&] { k.waitfor(10_us); });
    k.run();
    EXPECT_FALSE(k.timer_pending(id));
    k.cancel_timer(id);  // cancelling a fired timer is a harmless no-op
}

TEST(Kernel, RunUntilAdvancesThroughTimerOnlyActivity) {
    // A pending timer alone counts as activity: run_until() must advance to
    // it even with no runnable processes.
    Kernel k;
    SimTime fired_at{};
    k.post_at(30_us, [&] { fired_at = k.now(); });
    k.run_until(100_us);
    EXPECT_EQ(fired_at, 30_us);
    EXPECT_EQ(k.now(), 100_us);
}

TEST(Kernel, TimerCallbackCanChainAnotherTimer) {
    Kernel k;
    std::vector<SimTime> fires;
    std::function<void()> tick = [&] {
        fires.push_back(k.now());
        if (fires.size() < 3) {
            k.post_at(k.now() + 10_us, tick);
        }
    };
    k.post_at(10_us, tick);
    k.run_until(100_us);
    EXPECT_EQ(fires, (std::vector<SimTime>{10_us, 20_us, 30_us}));
}

// ---- Inline time advance ----
//
// A waitfor() whose end comes before anything else the scheduler could run
// advances time without leaving the process. Each test pins one boundary at
// which the kernel must take the scheduler round trip instead; the results
// are those of the round trip either way.

TEST(Kernel, InlineAdvanceStopsAtRunUntilLimit) {
    Kernel k;
    std::vector<SimTime> seen;
    k.spawn("p", [&] {
        k.waitfor(2_us);
        seen.push_back(k.now());
        k.waitfor(5_us);  // ends at 7 us, past the first limit
        seen.push_back(k.now());
        k.waitfor(3_us);
        seen.push_back(k.now());
    });
    EXPECT_TRUE(k.run_until(4_us));
    EXPECT_EQ(seen, (std::vector<SimTime>{2_us}));
    EXPECT_EQ(k.now(), 4_us);
    EXPECT_TRUE(k.run_until(7_us));  // a wakeup exactly at the limit still runs
    EXPECT_EQ(seen, (std::vector<SimTime>{2_us, 7_us}));
    EXPECT_EQ(k.now(), 7_us);
    EXPECT_FALSE(k.run_until(20_us));
    EXPECT_EQ(seen, (std::vector<SimTime>{2_us, 7_us, 10_us}));
    EXPECT_EQ(k.now(), 20_us);
    EXPECT_EQ(k.stats().time_advances, 3u);
}

TEST(Kernel, InlineAdvanceYieldsToTimedEntryAtSameInstant) {
    // "b" scheduled its wakeup at 5 us first, so it runs first at 5 us even
    // though "a" is alone when it asks for the same instant.
    Kernel k;
    std::vector<std::string> log;
    k.spawn("a", [&] {
        k.waitfor(2_us);
        k.waitfor(3_us);
        log.push_back("a@" + k.now().to_string());
    });
    k.spawn("b", [&] {
        k.waitfor(5_us);
        log.push_back("b@" + k.now().to_string());
    });
    k.run();
    EXPECT_EQ(log, (std::vector<std::string>{"b@5 us", "a@5 us"}));
}

TEST(Kernel, InlineAdvanceYieldsToTimerAtSameInstant) {
    Kernel k;
    std::vector<std::string> log;
    k.spawn("p", [&] {
        k.waitfor(1_us);
        k.post_at(4_us, [&] {
            log.push_back(this_process() == nullptr ? "timer in scheduler" : "timer in process");
        });
        k.waitfor(3_us);
        log.push_back("p@" + k.now().to_string());
    });
    k.run();
    EXPECT_EQ(log, (std::vector<std::string>{"timer in scheduler", "p@4 us"}));
}

TEST(Kernel, InlineAdvanceWakesNotifiedWaiterFirst) {
    // The waiter wakes at the end of the notifying delta, before time moves.
    Kernel k;
    Event e{k, "e"};
    std::vector<std::string> log;
    k.spawn("w", [&] {
        k.wait(e);
        log.push_back("w@" + k.now().to_string());
    });
    k.spawn("n", [&] {
        k.notify(e);
        k.waitfor(1_us);
        log.push_back("n@" + k.now().to_string());
    });
    k.run();
    EXPECT_EQ(log, (std::vector<std::string>{"w@0 ns", "n@1 us"}));
}

TEST(Kernel, InlineAdvanceTimerKillAtSameInstant) {
    Kernel k;
    bool unwound = false;
    bool resumed = false;
    struct Guard {
        bool& flag;
        ~Guard() { flag = true; }
    };
    Process* victim = k.spawn("victim", [&] {
        Guard g{unwound};
        k.waitfor(1_us);
        k.waitfor(4_us);  // a timer kills it at exactly 5 us
        resumed = true;
    });
    k.post_at(5_us, [&] { k.kill(*victim); });
    k.run();
    EXPECT_TRUE(unwound);
    EXPECT_FALSE(resumed);
    EXPECT_EQ(victim->state(), ProcState::Killed);
    EXPECT_EQ(k.now(), 5_us);
}

namespace {

/// Every KernelObserver callback as one text line, with the simulated time
/// and the process current() reports inside the callback.
struct CallbackLog : KernelObserver {
    explicit CallbackLog(Kernel& k) : k(k) {}
    void on_process_state(const Process& p, ProcState from, ProcState to) override {
        line(p.name() + " " + to_string(from) + ">" + to_string(to));
    }
    void on_time_advance(SimTime now) override { line("advance " + now.to_string()); }
    void line(const std::string& what) {
        text += std::to_string(k.now().ns()) + " [" +
                (k.current() != nullptr ? k.current()->name() : "-") + "] " + what + "\n";
    }
    Kernel& k;
    std::string text;
};

/// Captured from the scheduler round trip alone (before inline advance).
constexpr const char* kInlineAdvanceGolden = R"(0 [-] solo Created>Ready
0 [-] pair Created>Ready
0 [-] victim Created>Ready
0 [-] parent Created>Ready
0 [-] solo Ready>Running
0 [solo] solo Running>WaitingTime
0 [-] pair Ready>Running
0 [pair] pair Running>WaitingTime
0 [-] victim Ready>Running
0 [victim] victim Running>WaitingTime
0 [-] parent Ready>Running
0 [parent] parent.par0 Created>Ready
0 [parent] parent.par1 Created>Ready
0 [parent] parent Running>Joining
0 [-] parent.par0 Ready>Running
0 [parent.par0] parent.par0 Running>WaitingTime
0 [-] parent.par1 Ready>Running
0 [parent.par1] parent.par1 Running>WaitingTime
1000 [-] advance 1 us
1000 [-] parent.par0 WaitingTime>Ready
1000 [-] parent.par0 Ready>Running
1000 [parent.par0] parent.par0 Running>Done
2000 [-] advance 2 us
2000 [-] solo WaitingTime>Ready
2000 [-] solo Ready>Running
2000 [solo] solo Running>WaitingTime
3000 [-] advance 3 us
3000 [-] pair WaitingTime>Ready
3000 [-] pair Ready>Running
3000 [pair] pair Running>WaitingEvent
4000 [-] advance 4 us
4000 [-] solo WaitingTime>Ready
4000 [-] solo Ready>Running
4000 [solo] solo Running>WaitingTime
6000 [-] advance 6 us
6000 [-] solo WaitingTime>Ready
6000 [-] solo Ready>Running
6000 [solo] solo Running>WaitingEvent
7000 [-] advance 7 us
7000 [-] pair WaitingEvent>Ready
7000 [-] solo WaitingEvent>Ready
7000 [-] pair Ready>Running
7000 [pair] pair Running>WaitingTime
7000 [-] solo Ready>Running
7000 [solo] solo Running>WaitingTime
7000 [-] advance 7 us
7000 [-] pair WaitingTime>Ready
7000 [-] pair Ready>Running
7000 [pair] pair Running>Ready
7000 [-] pair Ready>Running
7000 [pair] pair Running>WaitingTime
8000 [-] advance 8 us
8000 [-] solo WaitingTime>Ready
8000 [-] pair WaitingTime>Ready
8000 [-] solo Ready>Running
8000 [solo] solo Running>Done
8000 [-] pair Ready>Running
8000 [pair] pair Running>Done
9000 [-] advance 9 us
9000 [-] victim WaitingTime>Ready
9000 [-] victim Ready>Running
9000 [victim] victim Running>Killed
12000 [-] advance 12 us
12000 [-] parent.par1 WaitingTime>Ready
12000 [-] parent.par1 Ready>Running
12000 [parent.par1] parent.par1 Running>Done
12000 [parent.par1] parent Joining>Ready
12000 [-] parent Ready>Running
12000 [parent] parent Running>WaitingTime
14000 [-] advance 14 us
14000 [-] parent WaitingTime>Ready
14000 [-] parent Ready>Running
14000 [parent] parent Running>WaitingTime
16000 [-] advance 16 us
16000 [-] parent WaitingTime>Ready
16000 [-] parent Ready>Running
16000 [parent] parent Running>Done
created 6 activations 22 deltas 15 advances 12 notified 1
)";

}  // namespace

// A mixed scenario whose waitfor()s take the inline path and the scheduler
// round trip in turn. Its full callback log and KernelStats were captured
// before the inline path existed; both must stay byte-identical.
TEST(Kernel, InlineAdvanceKeepsGoldenCallbackLog) {
    Kernel k;
    CallbackLog log{k};
    k.add_observer(&log);
    Event e{k, "e"};
    k.cancel_timer(k.post_at(4_us, [] {}));  // a dead timer must not stop time
    k.post_at(7_us, [&] { k.notify(e); });
    k.spawn("solo", [&] {
        for (int i = 0; i < 3; ++i) {
            k.waitfor(2_us);
        }
        k.wait(e);
        k.waitfor(1_us);
    });
    k.spawn("pair", [&] {
        k.waitfor(3_us);
        (void)k.wait_timeout(e, 10_us);
        k.waitfor(SimTime::zero());
        k.yield();
        k.waitfor(1_us);
    });
    Process* victim = k.spawn("victim", [&] { k.waitfor(9_us); });
    k.post_at(9_us, [&] { k.kill(*victim); });
    k.spawn("parent", [&] {
        k.par({[&] { k.waitfor(1_us); }, [&] { k.waitfor(12_us); }});
        k.waitfor(2_us);
        k.waitfor(2_us);
    });
    EXPECT_TRUE(k.run_until(5_us));
    k.run();
    const KernelStats& s = k.stats();
    const std::string stats = "created " + std::to_string(s.processes_created) +
                              " activations " + std::to_string(s.process_activations) +
                              " deltas " + std::to_string(s.delta_cycles) + " advances " +
                              std::to_string(s.time_advances) + " notified " +
                              std::to_string(s.events_notified) + "\n";
    EXPECT_EQ(log.text + stats, kInlineAdvanceGolden);
}

// ---- Guard-page fallback (satellite: StackPool robustness) ----

TEST(Kernel, GuardFailureFallsBackToUnguardedStacks) {
    StackPool::force_guard_failure_for_testing(true);
    {
        KernelConfig cfg;
        cfg.guard_pages = true;
        Kernel k{cfg};
        int sum = 0;
        for (int i = 0; i < 4; ++i) {
            k.spawn("p", [&sum, i] { sum += i; });
        }
        k.run();
        EXPECT_EQ(sum, 6);  // processes still ran, just without guards
        EXPECT_EQ(k.stats().guard_pages_disabled, 1u);
    }
    StackPool::force_guard_failure_for_testing(false);
    KernelConfig cfg;
    cfg.guard_pages = true;
    Kernel k{cfg};
    k.spawn("p", [] {});
    k.run();
    EXPECT_EQ(k.stats().guard_pages_disabled, 0u);
}
