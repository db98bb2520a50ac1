// Randomized property tests of the RTOS model: for every scheduling policy
// and a battery of seeds, generate a random task system (mixed aperiodic and
// periodic tasks, chunked computation, semaphore interactions, interrupts)
// and check the model's global invariants.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

using namespace slm;
using namespace slm::sim;
using namespace slm::rtos;
using namespace slm::time_literals;

namespace {

struct Scenario {
    SchedPolicy policy;
    std::uint32_t seed;
};

std::string scenario_name(const ::testing::TestParamInfo<Scenario>& info) {
    return std::string(to_string(info.param.policy)) + "_seed" +
           std::to_string(info.param.seed);
}

}  // namespace

class RtosProperties : public ::testing::TestWithParam<Scenario> {};

TEST_P(RtosProperties, RandomTaskSystemInvariants) {
    const auto [policy, seed] = GetParam();
    std::mt19937 rng{seed};

    Kernel k;
    trace::TraceRecorder rec;
    RtosConfig cfg;
    cfg.policy = policy;
    cfg.quantum = microseconds(rng() % 40 + 5);
    cfg.preemption_granularity =
        (rng() % 2 == 0) ? SimTime::zero() : microseconds(rng() % 30 + 5);
    RtosModel os{k, cfg};
    trace::RtosTraceAdapter tracer{os, rec};

    OsSemaphore sem{os, 1 + rng() % 2};
    const int n_aperiodic = 3 + static_cast<int>(rng() % 4);
    const int n_periodic = 1 + static_cast<int>(rng() % 2);

    SimTime total_work;
    std::vector<Task*> tasks;

    for (int i = 0; i < n_aperiodic; ++i) {
        const int prio = static_cast<int>(rng() % 5);
        const int steps = 2 + static_cast<int>(rng() % 5);
        const SimTime step = microseconds(rng() % 80 + 5);
        const bool uses_sem = rng() % 2 == 0;
        total_work += step * static_cast<std::uint64_t>(steps);
        Task* t = os.task_create("ap" + std::to_string(i), TaskType::Aperiodic, {}, {},
                                 prio, microseconds(rng() % 5000 + 500));
        tasks.push_back(t);
        k.spawn(t->name(), [&os, &sem, t, steps, step, uses_sem] {
            os.task_activate(t);
            for (int s = 0; s < steps; ++s) {
                if (uses_sem) {
                    sem.acquire();
                }
                os.time_wait(step);
                if (uses_sem) {
                    sem.release();
                }
            }
            os.task_terminate();
        });
    }

    constexpr int kCycles = 4;
    for (int i = 0; i < n_periodic; ++i) {
        const SimTime period = microseconds(500 + rng() % 500);
        const SimTime wcet = microseconds(rng() % 60 + 10);
        total_work += wcet * kCycles;
        Task* t = os.task_create("per" + std::to_string(i), TaskType::Periodic, period,
                                 wcet, static_cast<int>(rng() % 3));
        tasks.push_back(t);
        k.spawn(t->name(), [&os, t, wcet] {
            os.task_activate(t);
            for (int c = 0; c < kCycles; ++c) {
                os.time_wait(wcet);
                os.task_endcycle();
            }
            os.task_terminate();
        });
    }

    // A periodic interrupt source poking the semaphore.
    k.spawn("irq_src", [&] {
        for (int i = 0; i < 10; ++i) {
            k.waitfor(microseconds(rng() % 200 + 50));
            os.isr_enter("rand_irq");
            sem.release();
            os.interrupt_return();
        }
    });

    os.start();
    k.run();

    // ---- invariants ----
    // 1. Every task ran to completion.
    for (const Task* t : tasks) {
        EXPECT_EQ(t->state(), TaskState::Terminated) << t->name();
        EXPECT_GT(t->stats().exec_time.ns(), 0u) << t->name();
    }
    // 2. Execution is serialized on the single CPU.
    EXPECT_FALSE(rec.has_concurrent_execution("cpu0"));
    // 3. All modeled work was executed, exactly once.
    EXPECT_EQ(os.busy_time(), total_work);
    // 4. The CPU cannot be busy longer than the simulation ran.
    EXPECT_LE(os.busy_time(), k.now());
    // 5. Dispatch accounting is consistent.
    EXPECT_GE(os.stats().dispatches, os.stats().context_switches);
    EXPECT_GE(os.stats().context_switches, static_cast<std::uint64_t>(tasks.size()));
    // 6. No task is left in the RTOS bookkeeping.
    EXPECT_EQ(os.running_task(), nullptr);
    // 7. Trace-derived busy time matches the model's accounting.
    SimTime trace_busy;
    for (const Task* t : tasks) {
        trace_busy += rec.busy_time(t->name());
    }
    EXPECT_EQ(trace_busy, total_work);
}

TEST_P(RtosProperties, ResponseNeverBelowOwnWork) {
    const auto [policy, seed] = GetParam();
    std::mt19937 rng{seed};
    Kernel k;
    RtosConfig cfg;
    cfg.policy = policy;
    cfg.quantum = 20_us;
    RtosModel os{k, cfg};
    std::vector<std::pair<Task*, SimTime>> work;
    for (int i = 0; i < 5; ++i) {
        const SimTime wcet = microseconds(rng() % 90 + 10);
        Task* t = os.task_create("p" + std::to_string(i), TaskType::Periodic, 2_ms, wcet,
                                 static_cast<int>(rng() % 4));
        work.emplace_back(t, wcet);
        k.spawn(t->name(), [&os, t, wcet] {
            os.task_activate(t);
            for (int c = 0; c < 3; ++c) {
                os.time_wait(wcet);
                os.task_endcycle();
            }
            os.task_terminate();
        });
    }
    os.start();
    k.run();
    for (const auto& [t, wcet] : work) {
        EXPECT_GE(t->stats().max_response, wcet) << t->name();
        EXPECT_EQ(t->stats().completions, 3u) << t->name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicySeedMatrix, RtosProperties,
    ::testing::Values(
        Scenario{SchedPolicy::Fifo, 1}, Scenario{SchedPolicy::Fifo, 7},
        Scenario{SchedPolicy::Priority, 1}, Scenario{SchedPolicy::Priority, 7},
        Scenario{SchedPolicy::Priority, 42}, Scenario{SchedPolicy::RoundRobin, 1},
        Scenario{SchedPolicy::RoundRobin, 7}, Scenario{SchedPolicy::RoundRobin, 42},
        Scenario{SchedPolicy::Edf, 1}, Scenario{SchedPolicy::Edf, 7},
        Scenario{SchedPolicy::Edf, 42}, Scenario{SchedPolicy::Rms, 1},
        Scenario{SchedPolicy::Rms, 7}, Scenario{SchedPolicy::Rms, 42}),
    scenario_name);
