#include "rtos/rtos.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

using namespace slm;
using namespace slm::sim;
using namespace slm::rtos;
using namespace slm::time_literals;

namespace {

/// Spawn an SLDL process refined into an RTOS task (the paper's Fig. 5
/// pattern: activate, body, terminate).
Task* add_task(Kernel& k, RtosModel& os, const std::string& name, int prio,
               std::function<void(Task*)> body, TaskType type = TaskType::Aperiodic,
               SimTime period = {}, SimTime wcet = {}, SimTime deadline = {}) {
    Task* t = os.task_create(name, type, period, wcet, prio, deadline);
    k.spawn(name, [&os, t, body = std::move(body)] {
        os.task_activate(t);
        body(t);
        os.task_terminate();
    });
    return t;
}

/// Spawn an interrupt source: at time `at`, run `isr_body` as an ISR.
void add_isr(Kernel& k, RtosModel& os, const std::string& name, SimTime at,
             std::function<void()> isr_body) {
    k.spawn(name, [&k, &os, name, at, isr_body = std::move(isr_body)] {
        k.waitfor(at);
        os.isr_enter(name);
        isr_body();
        os.interrupt_return();
    });
}

}  // namespace

TEST(Rtos, TaskLifecycleStates) {
    Kernel k;
    RtosModel os{k};
    os.init();
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 5);
    EXPECT_EQ(t->state(), TaskState::New);
    k.spawn("t", [&] {
        os.task_activate(t);
        EXPECT_EQ(t->state(), TaskState::Running);
        os.time_wait(10_us);
        os.task_terminate();
        EXPECT_EQ(t->state(), TaskState::Terminated);
    });
    os.start();
    k.run();
    EXPECT_EQ(t->state(), TaskState::Terminated);
    EXPECT_EQ(t->stats().exec_time, 10_us);
    EXPECT_EQ(t->stats().completions, 1u);
}

TEST(Rtos, SerializedExecutionAccumulatesDelays) {
    // The defining property of the architecture model (paper §4.3): delays of
    // concurrent tasks are accumulative, unlike the overlapping unscheduled
    // model. Two 50 us tasks take 100 us.
    Kernel k;
    RtosModel os{k};
    add_task(k, os, "a", 1, [&](Task*) { os.time_wait(50_us); });
    add_task(k, os, "b", 2, [&](Task*) { os.time_wait(50_us); });
    os.start();
    k.run();
    EXPECT_EQ(k.now(), 100_us);
    EXPECT_EQ(os.busy_time(), 100_us);
}

TEST(Rtos, PriorityOrderLowestNumberFirst) {
    Kernel k;
    RtosModel os{k};
    std::vector<std::string> order;
    // Spawn in reverse priority order to prove ordering comes from priorities.
    add_task(k, os, "low", 30, [&](Task*) {
        os.time_wait(10_us);
        order.push_back("low");
    });
    add_task(k, os, "high", 10, [&](Task*) {
        os.time_wait(10_us);
        order.push_back("high");
    });
    add_task(k, os, "mid", 20, [&](Task*) {
        os.time_wait(10_us);
        order.push_back("mid");
    });
    os.start();
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"high", "mid", "low"}));
}

TEST(Rtos, PriorityTieBreaksFifo) {
    Kernel k;
    RtosModel os{k};
    std::vector<std::string> order;
    for (const char* n : {"first", "second", "third"}) {
        add_task(k, os, n, 7, [&order, &os, n](Task*) {
            os.time_wait(1_us);
            order.push_back(n);
        });
    }
    os.start();
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"first", "second", "third"}));
}

TEST(Rtos, PreemptionDelayedToEndOfDelayStep) {
    // Paper Fig. 8(b): the interrupt at t4 readies the high-priority task, but
    // the switch happens at t4' — the end of the running task's current
    // discrete delay step.
    Kernel k;
    RtosModel os{k};
    SimTime high_resumed;
    Task* high = nullptr;
    OsEvent* e = os.event_new("ext");
    high = add_task(k, os, "high", 1, [&](Task*) {
        os.event_wait(e);
        high_resumed = k.now();
        os.time_wait(20_us);
    });
    add_task(k, os, "low", 9, [&](Task*) {
        os.time_wait(100_us);  // one coarse delay step
        os.time_wait(100_us);
    });
    add_isr(k, os, "irq", 30_us, [&] { os.event_notify(e); });
    os.start();
    k.run();
    // Interrupt at 30 us, but low's step runs to 100 us before the switch.
    EXPECT_EQ(high_resumed, 100_us);
    EXPECT_EQ(high->stats().exec_time, 20_us);
    EXPECT_EQ(k.now(), 220_us);  // 200 us of low + 20 us of high, serialized
}

TEST(Rtos, PreemptionGranularityImprovesResponse) {
    // Same scenario with time_wait chopped into 10 us chunks: the switch now
    // happens at the first chunk boundary after the interrupt.
    Kernel k;
    RtosConfig cfg;
    cfg.preemption_granularity = 10_us;
    RtosModel os{k, cfg};
    SimTime high_resumed;
    OsEvent* e = os.event_new("ext");
    add_task(k, os, "high", 1, [&](Task*) {
        os.event_wait(e);
        high_resumed = k.now();
        os.time_wait(20_us);
    });
    add_task(k, os, "low", 9, [&](Task*) {
        os.time_wait(100_us);
        os.time_wait(100_us);
    });
    add_isr(k, os, "irq", 33_us, [&] { os.event_notify(e); });
    os.start();
    k.run();
    EXPECT_EQ(high_resumed, 40_us);  // next 10 us boundary after 33 us
    EXPECT_EQ(k.now(), 220_us);      // total work is granularity-invariant
}

TEST(Rtos, FifoIsNonPreemptive) {
    Kernel k;
    RtosConfig cfg;
    cfg.policy = SchedPolicy::Fifo;
    RtosModel os{k, cfg};
    std::vector<std::string> order;
    OsEvent* e = os.event_new("go");
    add_task(k, os, "high", 1, [&](Task*) {
        os.event_wait(e);
        order.push_back("high@" + std::to_string(k.now().ns()));
    });
    add_task(k, os, "low", 9, [&](Task*) {
        os.time_wait(100_us);
        order.push_back("low@" + std::to_string(k.now().ns()));
    });
    add_isr(k, os, "irq", 10_us, [&] { os.event_notify(e); });
    os.start();
    k.run();
    // Even though "high" became ready at 10 us, FIFO never preempts.
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "low@100000");
    EXPECT_EQ(order[1], "high@100000");
}

TEST(Rtos, RoundRobinRotatesOnQuantum) {
    Kernel k;
    RtosConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.quantum = 10_us;
    RtosModel os{k, cfg};
    SimTime a_done, b_done;
    add_task(k, os, "a", 5, [&](Task*) {
        os.time_wait(30_us);
        a_done = k.now();
    });
    add_task(k, os, "b", 5, [&](Task*) {
        os.time_wait(30_us);
        b_done = k.now();
    });
    os.start();
    k.run();
    // a: 0-10, 20-30, 40-50; b: 10-20, 30-40, 50-60.
    EXPECT_EQ(a_done, 50_us);
    EXPECT_EQ(b_done, 60_us);
    EXPECT_GE(os.stats().context_switches, 6u);
}

TEST(Rtos, RoundRobinRespectsPriorities) {
    Kernel k;
    RtosConfig cfg;
    cfg.policy = SchedPolicy::RoundRobin;
    cfg.quantum = 10_us;
    RtosModel os{k, cfg};
    SimTime high_done, low_done;
    add_task(k, os, "low", 9, [&](Task*) {
        os.time_wait(20_us);
        low_done = k.now();
    });
    add_task(k, os, "high", 1, [&](Task*) {
        os.time_wait(20_us);
        high_done = k.now();
    });
    os.start();
    k.run();
    EXPECT_EQ(high_done, 20_us);  // never rotated out by the low-prio task
    EXPECT_EQ(low_done, 40_us);
}

TEST(Rtos, EdfPicksEarliestDeadline) {
    Kernel k;
    RtosConfig cfg;
    cfg.policy = SchedPolicy::Edf;
    RtosModel os{k, cfg};
    std::vector<std::string> order;
    // Deadlines: b (300us) < a (500us); priority field is ignored by EDF.
    add_task(
        k, os, "a", 1,
        [&](Task*) {
            os.time_wait(10_us);
            order.push_back("a");
        },
        TaskType::Aperiodic, {}, {}, 500_us);
    add_task(
        k, os, "b", 9,
        [&](Task*) {
            os.time_wait(10_us);
            order.push_back("b");
        },
        TaskType::Aperiodic, {}, {}, 300_us);
    os.start();
    k.run();
    EXPECT_EQ(order, (std::vector<std::string>{"b", "a"}));
}

TEST(Rtos, RmsShorterPeriodWins) {
    Kernel k;
    RtosConfig cfg;
    cfg.policy = SchedPolicy::Rms;
    RtosModel os{k, cfg};
    std::vector<std::string> first_cycle_order;
    add_task(
        k, os, "slow", 1,
        [&](Task*) {
            os.time_wait(10_us);
            first_cycle_order.push_back("slow");
            os.task_endcycle();
        },
        TaskType::Periodic, 1_ms, 10_us);
    add_task(
        k, os, "fast", 9,
        [&](Task*) {
            os.time_wait(10_us);
            first_cycle_order.push_back("fast");
            os.task_endcycle();
        },
        TaskType::Periodic, 200_us, 10_us);
    os.start();
    k.run_until(150_us);
    EXPECT_EQ(first_cycle_order, (std::vector<std::string>{"fast", "slow"}));
}

TEST(Rtos, PeriodicTaskReleasesOnPeriod) {
    Kernel k;
    RtosModel os{k};
    std::vector<SimTime> releases;
    add_task(
        k, os, "p", 1,
        [&](Task*) {
            for (int i = 0; i < 5; ++i) {
                releases.push_back(k.now());
                os.time_wait(30_us);
                os.task_endcycle();
            }
        },
        TaskType::Periodic, 100_us, 30_us);
    os.start();
    k.run();
    ASSERT_EQ(releases.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(releases[static_cast<std::size_t>(i)],
                  microseconds(static_cast<std::uint64_t>(i) * 100));
    }
}

TEST(Rtos, PeriodicResponseTimeTracked) {
    Kernel k;
    RtosModel os{k};
    Task* t = add_task(
        k, os, "p", 1,
        [&](Task*) {
            for (int i = 0; i < 4; ++i) {
                os.time_wait(25_us);
                os.task_endcycle();
            }
        },
        TaskType::Periodic, 100_us, 25_us);
    os.start();
    k.run();
    EXPECT_EQ(t->stats().completions, 4u);
    EXPECT_EQ(t->stats().max_response, 25_us);
    EXPECT_EQ(t->stats().total_response, 100_us);
    EXPECT_EQ(t->stats().deadline_misses, 0u);
}

TEST(Rtos, DeadlineMissDetected) {
    Kernel k;
    RtosModel os{k};
    Task* t = add_task(
        k, os, "p", 1,
        [&](Task*) {
            for (int i = 0; i < 3; ++i) {
                os.time_wait(150_us);  // exceeds the 100 us period
                os.task_endcycle();
            }
        },
        TaskType::Periodic, 100_us, 150_us);
    os.start();
    k.run();
    EXPECT_EQ(t->stats().deadline_misses, 3u);
    EXPECT_EQ(os.stats().deadline_misses, 3u);
}

TEST(Rtos, ExplicitRelativeDeadlineUsed) {
    Kernel k;
    RtosModel os{k};
    // Deadline 40 us < period 100 us: a 50 us execution misses every cycle.
    Task* t = add_task(
        k, os, "p", 1,
        [&](Task*) {
            for (int i = 0; i < 2; ++i) {
                os.time_wait(50_us);
                os.task_endcycle();
            }
        },
        TaskType::Periodic, 100_us, 50_us, 40_us);
    os.start();
    k.run();
    EXPECT_EQ(t->stats().deadline_misses, 2u);
}

TEST(Rtos, TaskSleepAndActivate) {
    Kernel k;
    RtosModel os{k};
    std::vector<std::string> log;
    Task* sleeper = add_task(k, os, "sleeper", 1, [&](Task*) {
        log.push_back("pre-sleep@" + std::to_string(k.now().ns()));
        os.task_sleep();
        log.push_back("woken@" + std::to_string(k.now().ns()));
    });
    add_task(k, os, "waker", 5, [&](Task*) {
        os.time_wait(50_us);
        os.task_activate(sleeper);
        os.time_wait(10_us);
    });
    os.start();
    k.run();
    // sleeper (high prio) runs first, sleeps; waker runs 50 us, activates
    // sleeper which preempts immediately (activation is a syscall boundary).
    ASSERT_EQ(log.size(), 2u);
    EXPECT_EQ(log[0], "pre-sleep@0");
    EXPECT_EQ(log[1], "woken@50000");
}

TEST(Rtos, ActivateSuspendedFromLowerPrioYieldsImmediately) {
    Kernel k;
    RtosModel os{k};
    SimTime low_finished;
    Task* high = add_task(k, os, "high", 1, [&](Task*) {
        os.task_sleep();
        os.time_wait(30_us);
    });
    add_task(k, os, "low", 9, [&](Task*) {
        os.time_wait(10_us);
        os.task_activate(high);  // high preempts inside this call
        os.time_wait(10_us);
        low_finished = k.now();
    });
    os.start();
    k.run();
    EXPECT_EQ(low_finished, 50_us);  // 10 + (30 high) + 10
}

TEST(Rtos, TaskKillReadyTask) {
    Kernel k;
    RtosModel os{k};
    bool victim_ran = false;
    Task* victim = add_task(k, os, "victim", 9, [&](Task*) {
        victim_ran = true;
        os.time_wait(10_us);
    });
    add_task(k, os, "killer", 1, [&](Task*) {
        os.task_kill(victim);
        os.time_wait(5_us);
    });
    os.start();
    k.run();
    EXPECT_FALSE(victim_ran);
    EXPECT_EQ(victim->state(), TaskState::Terminated);
}

TEST(Rtos, TaskKillWaitingTaskCleansEventQueue) {
    Kernel k;
    RtosModel os{k};
    OsEvent* e = os.event_new("never");
    Task* victim = add_task(k, os, "victim", 1, [&](Task*) { os.event_wait(e); });
    add_task(k, os, "killer", 5, [&](Task*) {
        os.time_wait(10_us);
        os.task_kill(victim);
    });
    os.start();
    k.run();
    EXPECT_EQ(victim->state(), TaskState::Terminated);
    EXPECT_EQ(e->waiter_count(), 0u);
    EXPECT_TRUE(k.blocked_processes().empty());
}

TEST(Rtos, TaskKillSelfActsAsTerminate) {
    Kernel k;
    RtosModel os{k};
    bool after_kill = false;
    Task* t = nullptr;
    t = add_task(k, os, "suicidal", 1, [&](Task* me) {
        os.time_wait(5_us);
        os.task_kill(me);
        after_kill = true;  // must never run
    });
    os.start();
    k.run();
    EXPECT_FALSE(after_kill);
    EXPECT_EQ(t->state(), TaskState::Terminated);
}

TEST(Rtos, TaskKillRunningFromIsr) {
    Kernel k;
    RtosModel os{k};
    Task* victim = add_task(k, os, "victim", 5, [&](Task*) { os.time_wait(100_us); });
    SimTime other_start;
    add_task(k, os, "other", 9, [&](Task*) {
        other_start = k.now();
        os.time_wait(10_us);
    });
    add_isr(k, os, "irq", 30_us, [&] { os.task_kill(victim); });
    os.start();
    k.run();
    EXPECT_EQ(victim->state(), TaskState::Terminated);
    // "other" is dispatched right at the kill (the CPU went idle at 30 us).
    EXPECT_EQ(other_start, 30_us);
}

TEST(Rtos, ParStartSuspendsParentUntilParEnd) {
    // The paper's Fig. 6 refinement: dynamic fork/join of child tasks.
    Kernel k;
    RtosModel os{k};
    std::vector<std::string> log;
    Task* tb2 = os.task_create("B2", TaskType::Aperiodic, {}, {}, 2);
    Task* tb3 = os.task_create("B3", TaskType::Aperiodic, {}, {}, 1);
    k.spawn("Task_PE", [&] {
        Task* me = os.task_create("PE", TaskType::Aperiodic, {}, {}, 0);
        os.task_activate(me);
        os.time_wait(10_us);  // B1
        log.push_back("B1-done@" + std::to_string(k.now().ns()));
        Task* parent = os.par_start();
        k.par({[&] {
                   os.task_activate(tb2);
                   os.time_wait(20_us);
                   log.push_back("B2-done@" + std::to_string(k.now().ns()));
                   os.task_terminate();
               },
               [&] {
                   os.task_activate(tb3);
                   os.time_wait(30_us);
                   log.push_back("B3-done@" + std::to_string(k.now().ns()));
                   os.task_terminate();
               }});
        os.par_end(parent);
        log.push_back("join@" + std::to_string(k.now().ns()));
        os.task_terminate();
    });
    os.start();
    k.run();
    // B3 has higher priority; children serialize: B3 10..40, B2 40..60.
    EXPECT_EQ(log, (std::vector<std::string>{"B1-done@10000", "B3-done@40000",
                                             "B2-done@60000", "join@60000"}));
}

TEST(Rtos, EventNotifyWakesAllWaiters) {
    Kernel k;
    RtosModel os{k};
    OsEvent* e = os.event_new("e");
    std::vector<std::string> order;
    add_task(k, os, "w1", 5, [&](Task*) {
        os.event_wait(e);
        order.push_back("w1");
        os.time_wait(1_us);
    });
    add_task(k, os, "w2", 1, [&](Task*) {
        os.event_wait(e);
        order.push_back("w2");
        os.time_wait(1_us);
    });
    add_isr(k, os, "irq", 10_us, [&] { os.event_notify(e); });
    os.start();
    k.run();
    // Both wake; the higher-priority waiter (w2) is dispatched first.
    EXPECT_EQ(order, (std::vector<std::string>{"w2", "w1"}));
}

TEST(Rtos, EventNotifyWithNoWaitersIsLost) {
    Kernel k;
    RtosModel os{k};
    bool woke = false;
    OsEvent* e = os.event_new("e");
    add_task(k, os, "late", 1, [&](Task*) {
        os.time_wait(10_us);
        os.event_wait(e);  // the notify below already happened
        woke = true;
    });
    add_isr(k, os, "irq", 1_us, [&] { os.event_notify(e); });
    os.start();
    k.run();
    EXPECT_FALSE(woke);
}

TEST(Rtos, EventDelRemovesEvent) {
    Kernel k;
    RtosModel os{k};
    add_task(k, os, "t", 1, [&](Task*) {
        OsEvent* e = os.event_new("tmp");
        os.event_notify(e);  // no waiters: lost
        os.event_del(e);
        os.time_wait(1_us);
    });
    os.start();
    k.run();
    EXPECT_EQ(k.now(), 1_us);
}

TEST(Rtos, ContextSwitchesCounted) {
    Kernel k;
    RtosModel os{k};
    add_task(k, os, "a", 1, [&](Task*) { os.time_wait(10_us); });
    add_task(k, os, "b", 2, [&](Task*) { os.time_wait(10_us); });
    os.start();
    k.run();
    // dispatch a (1 switch), a terminates -> dispatch b (1 switch).
    EXPECT_EQ(os.stats().context_switches, 2u);
}

TEST(Rtos, ContextSwitchOverheadChargesTime) {
    Kernel k;
    RtosConfig cfg;
    cfg.context_switch_overhead = 3_us;
    RtosModel os{k, cfg};
    add_task(k, os, "a", 1, [&](Task*) { os.time_wait(10_us); });
    add_task(k, os, "b", 2, [&](Task*) { os.time_wait(10_us); });
    os.start();
    k.run();
    // 2 switches x 3 us overhead + 20 us work.
    EXPECT_EQ(k.now(), 26_us);
}

TEST(Rtos, TracerRecordsSerializedExecution) {
    Kernel k;
    trace::TraceRecorder rec;
    RtosConfig cfg;
    cfg.cpu_name = "PE0";
    RtosModel os{k, cfg};
    trace::RtosTraceAdapter tracer{os, rec};
    add_task(k, os, "a", 1, [&](Task*) { os.time_wait(10_us); });
    add_task(k, os, "b", 2, [&](Task*) { os.time_wait(10_us); });
    os.start();
    k.run();
    EXPECT_FALSE(rec.has_concurrent_execution("PE0"));
    EXPECT_EQ(rec.context_switches("PE0"), 2u);
    const auto ivs_a = rec.intervals("a");
    ASSERT_EQ(ivs_a.size(), 1u);
    EXPECT_EQ(ivs_a[0].begin, SimTime::zero());
    EXPECT_EQ(ivs_a[0].end, 10_us);
    const auto ivs_b = rec.intervals("b");
    ASSERT_EQ(ivs_b.size(), 1u);
    EXPECT_EQ(ivs_b[0].begin, 10_us);
    EXPECT_EQ(ivs_b[0].end, 20_us);
}

TEST(Rtos, StartPolicyOverride) {
    Kernel k;
    RtosModel os{k};  // config default: Priority
    std::vector<std::string> order;
    OsEvent* e = os.event_new("go");
    add_task(k, os, "high", 1, [&](Task*) {
        os.event_wait(e);
        order.push_back("high");
    });
    add_task(k, os, "low", 9, [&](Task*) {
        os.time_wait(100_us);
        order.push_back("low");
    });
    add_isr(k, os, "irq", 10_us, [&] { os.event_notify(e); });
    os.start(SchedPolicy::Fifo);  // override: non-preemptive
    k.run();
    EXPECT_EQ(std::string(os.policy().name()), "FIFO");
    EXPECT_EQ(order, (std::vector<std::string>{"low", "high"}));
}

TEST(Rtos, InterruptReturnDispatchesWhenIdle) {
    Kernel k;
    RtosModel os{k};
    OsEvent* e = os.event_new("ext");
    SimTime resumed;
    add_task(k, os, "t", 1, [&](Task*) {
        os.event_wait(e);  // CPU idle while waiting
        resumed = k.now();
    });
    add_isr(k, os, "irq", 42_us, [&] { os.event_notify(e); });
    os.start();
    k.run();
    EXPECT_EQ(resumed, 42_us);  // immediate dispatch: nothing was running
    EXPECT_EQ(os.stats().isr_entries, 1u);
}

TEST(Rtos, SelfReturnsBoundTask) {
    Kernel k;
    RtosModel os{k};
    Task* t = nullptr;
    const Task* seen = nullptr;
    t = add_task(k, os, "t", 1, [&](Task*) { seen = os.self(); });
    os.start();
    k.run();
    EXPECT_EQ(seen, t);
    EXPECT_EQ(os.self(), nullptr);  // outside process context
}

TEST(Rtos, RunningTaskVisible) {
    Kernel k;
    RtosModel os{k};
    add_task(k, os, "t", 1, [&](Task* me) {
        EXPECT_EQ(os.running_task(), me);
        os.time_wait(1_us);
    });
    os.start();
    k.run();
    EXPECT_EQ(os.running_task(), nullptr);
}

TEST(Rtos, BusyTimeSumsAllTasks) {
    Kernel k;
    RtosModel os{k};
    add_task(k, os, "a", 1, [&](Task*) { os.time_wait(7_us); });
    add_task(k, os, "b", 2, [&](Task*) { os.time_wait(5_us); });
    os.start();
    k.run();
    EXPECT_EQ(os.busy_time(), 12_us);
}

TEST(Rtos, TimeWaitZeroIsSyscallBoundary) {
    Kernel k;
    RtosModel os{k};
    add_task(k, os, "t", 1, [&](Task*) { os.time_wait(SimTime::zero()); });
    os.start();
    k.run();
    EXPECT_EQ(k.now(), SimTime::zero());
}

TEST(Rtos, TwoRtosInstancesAreIndependent) {
    // Two PEs, each with its own RTOS: tasks on different PEs overlap in time,
    // tasks on the same PE serialize.
    Kernel k;
    RtosConfig c0, c1;
    c0.cpu_name = "PE0";
    c1.cpu_name = "PE1";
    RtosModel os0{k, c0}, os1{k, c1};
    add_task(k, os0, "pe0_a", 1, [&](Task*) { os0.time_wait(50_us); });
    add_task(k, os0, "pe0_b", 2, [&](Task*) { os0.time_wait(50_us); });
    add_task(k, os1, "pe1_a", 1, [&](Task*) { os1.time_wait(80_us); });
    os0.start();
    os1.start();
    k.run();
    // PE0 needs 100 us serialized; PE1's 80 us overlaps with it.
    EXPECT_EQ(k.now(), 100_us);
    EXPECT_EQ(os0.busy_time(), 100_us);
    EXPECT_EQ(os1.busy_time(), 80_us);
}

// ---- parameterized policy sweep: cross-policy invariants ----

class PolicySweep : public ::testing::TestWithParam<SchedPolicy> {};

TEST_P(PolicySweep, WorkConservingSerialization) {
    // N CPU-bound tasks with mixed attributes: under every policy, the model
    // must serialize execution (makespan == total work) and every task must
    // finish exactly its own work.
    Kernel k;
    trace::TraceRecorder rec;
    RtosConfig cfg;
    cfg.policy = GetParam();
    cfg.quantum = 7_us;
    RtosModel os{k, cfg};
    trace::RtosTraceAdapter tracer{os, rec};
    constexpr int kTasks = 8;
    SimTime total;
    for (int i = 0; i < kTasks; ++i) {
        const SimTime work = microseconds(static_cast<std::uint64_t>(11 + 13 * i));
        total += work;
        add_task(
            k, os, "t" + std::to_string(i), i % 3, [&os, work](Task*) {
                os.time_wait(work / 2);
                os.time_wait(work - work / 2);
            },
            TaskType::Aperiodic, {}, {}, microseconds(100 + 50u * static_cast<unsigned>(i)));
    }
    os.start();
    k.run();
    EXPECT_EQ(k.now(), total);
    EXPECT_EQ(os.busy_time(), total);
    EXPECT_FALSE(rec.has_concurrent_execution("cpu0"));
    for (const Task* t : os.tasks()) {
        EXPECT_EQ(t->state(), TaskState::Terminated) << t->name();
    }
}

TEST_P(PolicySweep, BlockedTasksDoNotHoldCpu) {
    // One task blocks on an event mid-way; the others keep the CPU busy.
    Kernel k;
    RtosConfig cfg;
    cfg.policy = GetParam();
    cfg.quantum = 5_us;
    RtosModel os{k, cfg};
    OsEvent* e = os.event_new("e");
    add_task(
        k, os, "blocker", 0,
        [&](Task*) {
            os.time_wait(10_us);
            os.event_wait(e);
            os.time_wait(10_us);
        },
        TaskType::Aperiodic, {}, {}, 100_us);
    add_task(
        k, os, "worker", 1,
        [&](Task*) {
            os.time_wait(40_us);
            os.event_notify(e);
            os.time_wait(10_us);
        },
        TaskType::Aperiodic, {}, {}, 200_us);
    os.start();
    k.run();
    EXPECT_EQ(k.now(), 70_us);  // all 70 us of work, no idle gaps
    EXPECT_EQ(os.busy_time(), 70_us);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySweep,
                         ::testing::Values(SchedPolicy::Fifo, SchedPolicy::Priority,
                                           SchedPolicy::RoundRobin, SchedPolicy::Edf,
                                           SchedPolicy::Rms),
                         [](const ::testing::TestParamInfo<SchedPolicy>& info) {
                             return to_string(info.param);
                         });

// ---- parameterized granularity sweep ----

class GranularitySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GranularitySweep, ResponseBoundedByGranularity) {
    const SimTime gran = microseconds(GetParam());
    Kernel k;
    RtosConfig cfg;
    cfg.preemption_granularity = gran;
    RtosModel os{k, cfg};
    OsEvent* e = os.event_new("ext");
    SimTime resumed;
    constexpr auto kIrqAt = 37_us;
    add_task(k, os, "high", 1, [&](Task*) {
        os.event_wait(e);
        resumed = k.now();
    });
    add_task(k, os, "low", 9, [&](Task*) { os.time_wait(200_us); });
    add_isr(k, os, "irq", kIrqAt, [&] { os.event_notify(e); });
    os.start();
    k.run();
    // The dispatch latency is at most one delay-model step.
    EXPECT_GE(resumed, kIrqAt);
    EXPECT_LE((resumed - kIrqAt).ns(), gran.ns());
    // And the switch happens exactly at a chunk boundary.
    EXPECT_EQ(resumed.ns() % gran.ns(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Granularities, GranularitySweep,
                         ::testing::Values(1u, 2u, 5u, 10u, 20u, 50u, 100u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                             return std::to_string(info.param) + "us";
                         });
