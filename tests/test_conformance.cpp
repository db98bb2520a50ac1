// Cross-personality conformance suite: the same scenarios run once through
// the paper-style API (RtosModel + os_channels) and once through the
// ITRON-style API (ItronOs), and must produce byte-identical traces and
// identical core statistics — the layered architecture's contract that a
// personality only renames calls, never changes scheduling. The suite also
// checks that the schedule explorer hooks both personalities through the
// shared OsCore (identical schedule spaces, deadlock detection on an
// ITRON-only model).

#include "rtos/itron.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>

#include "explore/explore.hpp"
#include "fault/fault.hpp"
#include "obs/analytics.hpp"
#include "obs/metrics.hpp"
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

// ---------------------------------------------------------------------------
// Personality-neutral scenario facade. A scenario describes tasks and their
// use of OS services against this structure; each personality runner binds
// the callbacks to its own call set, so one scenario definition drives both
// APIs. Every runner provides one semaphore ("sem") and one queue ("q").
struct Api {
    std::function<void(const std::string&, int, std::function<void()>)> spawn_task;
    std::function<void(SimTime)> exec;   ///< model computation time
    std::function<void(SimTime)> delay;  ///< timed sleep, no CPU use
    std::function<void()> sleep_self;    ///< sleep until woken
    std::function<void(const std::string&)> wake;
    std::function<void()> sem_wait;
    std::function<bool(SimTime)> sem_wait_for;  ///< false = timed out
    std::function<void()> sem_signal;
    std::function<void(std::int64_t)> q_send;
    std::function<std::int64_t()> q_recv;
    // Recovery services (restartable tasks + watchdogs). `spawn_managed`
    // registers the body with the OS (task_set_body / cre_tsk) so the task
    // can be restarted; `spawn_task` keeps the hand-spawned legacy idiom.
    std::function<void(const std::string&, int, std::function<void()>)> spawn_managed;
    std::function<void(const std::string&)> restart;
    std::function<void(const std::string&, SimTime, MissPolicy)> wd_arm;
    std::function<void(const std::string&)> wd_kick;
    std::function<void(const std::string&)> wd_disarm;
    /// Deliver interrupt `irq` at time `at` from a device process; the ISR
    /// signals "sem".
    std::function<void(SimTime, const std::string&)> irq_at;
};

using Scenario = std::function<void(Api&)>;

struct Outcome {
    std::string csv;
    std::string metrics;  ///< obs::RtosAnalytics registry, Prometheus text
    std::uint64_t end_ns = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t syscalls = 0;
    std::uint64_t restarts = 0;
    std::uint64_t crashes = 0;
    std::uint64_t watchdog_fires = 0;
    // What each consumer of the core's switch and ISR events counted.
    std::uint64_t preemptions = 0;
    std::uint64_t isr_entries = 0;
    std::uint64_t trace_switches = 0;
    std::uint64_t trace_irqs = 0;
    std::uint64_t analytics_switches = 0;
    std::uint64_t analytics_dispatches = 0;
};

void count_consumers(Outcome& out, const OsCore& os, const trace::TraceRecorder& rec,
                     const obs::Registry& reg) {
    const obs::Labels cpu{{"cpu", os.config().cpu_name}};
    out.preemptions = os.stats().preemptions;
    out.isr_entries = os.stats().isr_entries;
    out.trace_switches = rec.context_switches(os.config().cpu_name);
    out.trace_irqs = rec.count(trace::RecordKind::Irq);
    out.analytics_switches = reg.find_counter("slm_os_switches_total", cpu)->value();
    out.analytics_dispatches = reg.find_counter("slm_os_dispatches_total", cpu)->value();
}

/// Observer-derived analytics as comparable text. Everything RtosAnalytics
/// collects (latency/response histograms, preemption/switch/blocking
/// counters) flows from personality-neutral OsCore events, so the full
/// Prometheus dump — values, series, registration order — must be
/// byte-identical across personalities. Syscall counts, which legitimately
/// differ (ITRON object creation is a syscall, paper-API construction is
/// not), live in RtosStats and never enter this registry.
std::string analytics_metrics(const obs::Registry& reg) {
    std::ostringstream os;
    reg.write_prometheus(os);
    return os.str();
}

Outcome run_paper(const Scenario& sc, SchedPolicy policy = SchedPolicy::Priority,
                  const fault::FaultPlan* fplan = nullptr) {
    Kernel k;
    trace::TraceRecorder rec;
    RtosConfig cfg;
    cfg.policy = policy;
    RtosModel os{k, cfg};
    trace::RtosTraceAdapter tracer{os, rec};
    std::optional<fault::FaultInjector> inj;
    if (fplan != nullptr) {
        inj.emplace(*fplan);  // seeded by the plan: same PRNG both runners
        inj->attach(os);
    }
    obs::Registry reg;
    obs::RtosAnalytics analytics{os, reg};
    os.init();
    OsSemaphore sem{os, 0, "sem"};
    OsQueue<std::int64_t> q{os, 0, "q"};
    std::unordered_map<std::string, Task*> tasks;

    Api api;
    api.spawn_task = [&](const std::string& name, int prio, std::function<void()> body) {
        Task* t = os.task_create(name, TaskType::Aperiodic, {}, {}, prio);
        tasks.emplace(name, t);
        k.spawn(name, [&os, t, body = std::move(body)] {
            os.task_activate(t);
            body();
            os.task_terminate();
        });
    };
    api.exec = [&](SimTime dt) { os.time_wait(dt); };
    api.delay = [&](SimTime dt) { os.task_delay(dt); };
    api.sleep_self = [&] { os.task_sleep(); };
    api.wake = [&](const std::string& name) { os.task_activate(tasks.at(name)); };
    api.sem_wait = [&] { sem.acquire(); };
    api.sem_wait_for = [&](SimTime t) { return sem.acquire_for(t); };
    api.sem_signal = [&] { sem.release(); };
    api.q_send = [&](std::int64_t v) { q.send(v); };
    api.q_recv = [&] { return q.receive(); };
    api.spawn_managed = [&](const std::string& name, int prio,
                            std::function<void()> body) {
        Task* t = os.task_create(name, TaskType::Aperiodic, {}, {}, prio);
        tasks.emplace(name, t);
        os.task_set_body(t, std::move(body));
        os.task_start(t);
    };
    api.restart = [&](const std::string& name) { os.task_restart(tasks.at(name)); };
    api.wd_arm = [&](const std::string& name, SimTime timeout, MissPolicy action) {
        os.watchdog_arm(tasks.at(name), timeout, action);
    };
    api.wd_kick = [&](const std::string& name) { os.watchdog_kick(tasks.at(name)); };
    api.wd_disarm = [&](const std::string& name) { os.watchdog_disarm(tasks.at(name)); };
    api.irq_at = [&](SimTime at, const std::string& irq) {
        k.spawn(irq, [&k, &os, &sem, at, irq] {
            k.waitfor(at);
            os.isr_deliver(irq, [&sem] { sem.release(); });
        });
    };

    sc(api);
    os.start();
    k.run();

    std::ostringstream csv;
    rec.write_csv(csv);
    Outcome out{csv.str(), analytics_metrics(reg), k.now().ns(),
                os.stats().context_switches, os.stats().dispatches, os.stats().syscalls,
                os.stats().restarts, os.stats().crashes, os.stats().watchdog_fires};
    count_consumers(out, os, rec, reg);
    return out;
}

Outcome run_itron(const Scenario& sc, SchedPolicy policy = SchedPolicy::Priority,
                  const fault::FaultPlan* fplan = nullptr) {
    Kernel k;
    trace::TraceRecorder rec;
    RtosConfig cfg;
    cfg.policy = policy;
    itron::ItronOs os{k, cfg};
    trace::RtosTraceAdapter tracer{os.core(), rec};
    std::optional<fault::FaultInjector> inj;
    if (fplan != nullptr) {
        inj.emplace(*fplan);
        inj->attach(os.core());
    }
    obs::Registry reg;
    obs::RtosAnalytics analytics{os.core(), reg};
    EXPECT_EQ(os.cre_sem(1, {.isemcnt = 0, .name = "sem"}), itron::E_OK);
    EXPECT_EQ(os.cre_dtq(1, {.dtqcnt = 0, .name = "q"}), itron::E_OK);
    std::unordered_map<std::string, itron::ID> ids;
    itron::ID next_id = 1;

    Api api;
    api.spawn_task = [&](const std::string& name, int prio,
                         std::function<void()> body) {
        const itron::ID id = next_id++;
        ids.emplace(name, id);
        EXPECT_EQ(os.cre_tsk(id, {.name = name, .itskpri = prio, .task = std::move(body)}),
                  itron::E_OK);
        EXPECT_EQ(os.sta_tsk(id), itron::E_OK);
    };
    api.exec = [&](SimTime dt) { os.core().time_wait(dt); };
    api.delay = [&](SimTime dt) { EXPECT_EQ(os.dly_tsk(dt), itron::E_OK); };
    api.sleep_self = [&] { EXPECT_EQ(os.slp_tsk(), itron::E_OK); };
    api.wake = [&](const std::string& name) {
        EXPECT_EQ(os.wup_tsk(ids.at(name)), itron::E_OK);
    };
    api.sem_wait = [&] { EXPECT_EQ(os.wai_sem(1), itron::E_OK); };
    api.sem_wait_for = [&](SimTime t) { return os.twai_sem(1, t) == itron::E_OK; };
    api.sem_signal = [&] { EXPECT_EQ(os.sig_sem(1), itron::E_OK); };
    api.q_send = [&](std::int64_t v) {
        EXPECT_EQ(os.snd_dtq(1, static_cast<itron::VP_INT>(v)), itron::E_OK);
    };
    api.q_recv = [&]() -> std::int64_t {
        itron::VP_INT v = 0;
        EXPECT_EQ(os.rcv_dtq(&v, 1), itron::E_OK);
        return static_cast<std::int64_t>(v);
    };
    api.spawn_managed = [&](const std::string& name, int prio,
                            std::function<void()> body) {
        const itron::ID id = next_id++;
        ids.emplace(name, id);
        EXPECT_EQ(os.cre_tsk(id, {.name = name, .itskpri = prio, .task = std::move(body)}),
                  itron::E_OK);
        EXPECT_EQ(os.sta_tsk(id), itron::E_OK);
    };
    api.restart = [&](const std::string& name) {
        EXPECT_EQ(os.rst_tsk(ids.at(name)), itron::E_OK);
    };
    api.wd_arm = [&](const std::string& name, SimTime timeout, MissPolicy action) {
        EXPECT_EQ(os.sta_wdg(ids.at(name), timeout, action), itron::E_OK);
    };
    api.wd_kick = [&](const std::string& name) {
        EXPECT_EQ(os.kck_wdg(ids.at(name)), itron::E_OK);
    };
    api.wd_disarm = [&](const std::string& name) {
        EXPECT_EQ(os.stp_wdg(ids.at(name)), itron::E_OK);
    };
    api.irq_at = [&](SimTime at, const std::string& irq) {
        k.spawn(irq, [&k, &os, at, irq] {
            k.waitfor(at);
            os.core().isr_deliver(irq, [&os] { EXPECT_EQ(os.sig_sem(1), itron::E_OK); });
        });
    };

    sc(api);
    os.start();
    k.run();

    std::ostringstream csv;
    rec.write_csv(csv);
    Outcome out{csv.str(), analytics_metrics(reg), k.now().ns(),
                os.core().stats().context_switches, os.core().stats().dispatches,
                os.core().stats().syscalls, os.core().stats().restarts,
                os.core().stats().crashes, os.core().stats().watchdog_fires};
    count_consumers(out, os.core(), rec, reg);
    return out;
}

void expect_conformant(const char* what, const Scenario& sc,
                       SchedPolicy policy = SchedPolicy::Priority,
                       const char* fault_plan = nullptr) {
    std::optional<fault::FaultPlan> plan;
    if (fault_plan != nullptr) {
        std::string err;
        plan = fault::FaultPlan::parse(fault_plan, &err);
        ASSERT_TRUE(plan.has_value()) << what << ": bad fault plan: " << err;
    }
    const fault::FaultPlan* fp = plan.has_value() ? &*plan : nullptr;
    const Outcome paper = run_paper(sc, policy, fp);
    const Outcome itron = run_itron(sc, policy, fp);
    EXPECT_FALSE(paper.csv.empty()) << what;
    EXPECT_EQ(paper.csv, itron.csv) << what << ": trace divergence between personalities";
    EXPECT_FALSE(paper.metrics.empty()) << what;
    EXPECT_EQ(paper.metrics, itron.metrics)
        << what << ": analytics metrics divergence between personalities";
    EXPECT_EQ(paper.end_ns, itron.end_ns) << what;
    EXPECT_EQ(paper.context_switches, itron.context_switches) << what;
    EXPECT_EQ(paper.dispatches, itron.dispatches) << what;
    EXPECT_EQ(paper.syscalls, itron.syscalls) << what;
    EXPECT_EQ(paper.restarts, itron.restarts) << what;
    EXPECT_EQ(paper.crashes, itron.crashes) << what;
    EXPECT_EQ(paper.watchdog_fires, itron.watchdog_fires) << what;
}

// ---- shared scenarios -----------------------------------------------------

void sc_preemption(Api& api) {
    api.spawn_task("hi", 1, [&api] {
        api.exec(1_ms);
        api.delay(2_ms);
        api.exec(1_ms);
    });
    api.spawn_task("lo", 5, [&api] { api.exec(5_ms); });
}

void sc_semaphore(Api& api) {
    api.spawn_task("cons", 1, [&api] {
        for (int i = 0; i < 3; ++i) {
            api.sem_wait();
            api.exec(500_us);
        }
    });
    api.spawn_task("prod", 5, [&api] {
        for (int i = 0; i < 3; ++i) {
            api.exec(1_ms);
            api.sem_signal();
        }
    });
}

void sc_sleep_wakeup(Api& api) {
    api.spawn_task("sleeper", 1, [&api] {
        api.exec(1_ms);
        api.sleep_self();
        api.exec(1_ms);
    });
    api.spawn_task("waker", 5, [&api] {
        api.exec(3_ms);
        api.wake("sleeper");
        api.exec(1_ms);
    });
}

void sc_queue(Api& api) {
    api.spawn_task("qcons", 1, [&api] {
        for (int i = 0; i < 3; ++i) {
            const std::int64_t v = api.q_recv();
            api.exec(microseconds(100) * static_cast<std::uint64_t>(v + 1));
        }
    });
    api.spawn_task("qprod", 3, [&api] {
        for (std::int64_t i = 0; i < 3; ++i) {
            api.exec(1_ms);
            api.q_send(i);
        }
    });
}

void sc_round_robin(Api& api) {
    for (const char* n : {"rr0", "rr1", "rr2"}) {
        api.spawn_task(n, 0, [&api] { api.exec(2500_us); });
    }
}

void sc_sem_timeout(Api& api) {
    // The producer idles (no CPU use), so the consumer's 1 ms timeout is
    // served the instant it fires and genuinely fails; the 5 ms wait then
    // succeeds when the signal lands at 3 ms.
    api.spawn_task("twait", 1, [&api] {
        EXPECT_FALSE(api.sem_wait_for(1_ms));  // nothing signaled before 1 ms
        api.exec(500_us);
        EXPECT_TRUE(api.sem_wait_for(5_ms));   // token arrives at 3 ms
        api.exec(500_us);
    });
    api.spawn_task("tprod", 5, [&api] {
        api.delay(3_ms);
        api.sem_signal();
        api.exec(100_us);
    });
}

void sc_restart_watchdog(Api& api) {
    // A managed service pets its watchdog chunk by chunk, then overruns; the
    // supervisor restarts it mid-flight and finally disarms the watchdog.
    // Exercises task_set_body/task_start/task_restart/watchdog_* against
    // cre_tsk/sta_tsk/rst_tsk/sta_wdg/kck_wdg/stp_wdg.
    api.spawn_managed("svc", 2, [&api] {
        for (int i = 0; i < 4; ++i) {
            api.exec(1_ms);
            api.wd_kick("svc");
        }
        api.exec(5_ms);  // overrun tail: the watchdog fires (Notify) mid-way
    });
    api.spawn_task("boss", 1, [&api] {
        api.wd_arm("svc", 2_ms, MissPolicy::Notify);
        api.delay(3_ms);
        api.restart("svc");  // restart the preempted service mid-flight
        api.delay(12_ms);
        api.wd_disarm("svc");
    });
}

void sc_faulted_recovery(Api& api) {
    // Same shape under an active fault plan: seeded exec jitter and a scaling
    // window stretch the service's chunks, so the kicks race the watchdog.
    // Both personalities see the same injector decisions (same plan seed),
    // so traces, metrics, and recovery counters must still match exactly.
    api.spawn_managed("worker", 3, [&api] {
        for (int i = 0; i < 5; ++i) {
            api.exec(1_ms);
            api.wd_kick("worker");
        }
    });
    api.spawn_task("boss", 1, [&api] {
        api.wd_arm("worker", 2_ms, MissPolicy::Notify);
        api.delay(4_ms);
        api.restart("worker");
        api.delay(14_ms);
        api.wd_disarm("worker");
    });
}

void sc_switch_edges(Api& api) {
    // Every edge of the core's context-switch rule in one run (RoundRobin,
    // 1 ms quantum): quantum expiries that re-pick the lone ready task (no
    // switch), a preemption at a 100 us step boundary, a crash at dispatch
    // (see kSwitchEdgesPlan), an ISR that wakes a waiting task, and a
    // self-restart whose fresh incarnation is redispatched (a switch, though
    // no task ran in between).
    auto incarnation = std::make_shared<int>(0);
    api.spawn_managed("solo", 3, [&api, incarnation] {
        for (int i = 0; i < 25; ++i) {
            api.exec(100_us);
        }
        if ((*incarnation)++ == 0) {
            api.restart("solo");
        }
    });
    api.spawn_task("hi", 1, [&api] {
        api.delay(1250_us);
        api.exec(200_us);
    });
    api.spawn_task("victim", 2, [&api] {
        api.delay(2_ms);
        api.exec(100_us);
    });
    api.spawn_task("waiter", 2, [&api] {
        api.sem_wait();
        api.exec(100_us);
    });
    api.irq_at(3500_us, "irq0");
}

constexpr const char* kSwitchEdgesPlan = "crash victim at=2ms\n";

TEST(Conformance, Preemption) { expect_conformant("preemption", sc_preemption); }

TEST(Conformance, SemaphoreProducerConsumer) {
    expect_conformant("semaphore", sc_semaphore);
}

TEST(Conformance, SleepWakeup) { expect_conformant("sleep/wakeup", sc_sleep_wakeup); }

TEST(Conformance, MessageQueue) { expect_conformant("queue", sc_queue); }

TEST(Conformance, RoundRobin) {
    expect_conformant("round-robin", sc_round_robin, SchedPolicy::RoundRobin);
}

TEST(Conformance, SemaphoreTimeout) {
    expect_conformant("timed semaphore", sc_sem_timeout);
}

TEST(Conformance, RestartAndWatchdog) {
    expect_conformant("restart/watchdog", sc_restart_watchdog);
}

TEST(Conformance, FaultInjectedRecovery) {
    expect_conformant("faulted recovery", sc_faulted_recovery, SchedPolicy::Priority,
                      "seed 23\n"
                      "exec_jitter worker max=400us p=0.7\n"
                      "exec_scale worker factor=1.5 after=2ms until=6ms\n");
}

TEST(Conformance, SwitchEdges) {
    expect_conformant("switch edges", sc_switch_edges, SchedPolicy::RoundRobin,
                      kSwitchEdgesPlan);
}

// The core alone decides what a context switch is (OsCore::dispatch); the
// trace adapter and RtosAnalytics count its on_context_switch hook, so all
// three agree on every edge of the rule, under either personality.
TEST(Conformance, OneDefinitionOfContextSwitch) {
    const fault::FaultPlan plan = *fault::FaultPlan::parse(kSwitchEdgesPlan);
    for (const bool itron : {false, true}) {
        const Outcome o = itron ? run_itron(sc_switch_edges, SchedPolicy::RoundRobin, &plan)
                                : run_paper(sc_switch_edges, SchedPolicy::RoundRobin, &plan);
        SCOPED_TRACE(itron ? "ItronOs" : "RtosModel");
        EXPECT_EQ(o.trace_switches, o.context_switches);
        EXPECT_EQ(o.analytics_switches, o.context_switches);
        EXPECT_EQ(o.trace_irqs, o.isr_entries);
        // Each edge of the rule was exercised.
        EXPECT_GT(o.analytics_dispatches, o.analytics_switches);  // RR re-picks
        EXPECT_GT(o.preemptions, 0u);
        EXPECT_EQ(o.crashes, 1u);
        EXPECT_EQ(o.restarts, 1u);
        EXPECT_EQ(o.isr_entries, 1u);
    }
}

// ---- ITRON personality semantics ------------------------------------------

TEST(ItronPersonality, ObjectAndParameterErrors) {
    Kernel k;
    itron::ItronOs os{k};
    EXPECT_EQ(os.cre_tsk(0, {.name = "bad", .task = [] {}}), itron::E_ID);
    EXPECT_EQ(os.cre_tsk(1, {.name = "nobody", .task = nullptr}), itron::E_PAR);
    EXPECT_EQ(os.sta_tsk(1), itron::E_NOEXS);
    EXPECT_EQ(os.cre_tsk(1, {.name = "t1", .task = [] {}}), itron::E_OK);
    EXPECT_EQ(os.cre_tsk(1, {.name = "dup", .task = [] {}}), itron::E_OBJ);
    EXPECT_EQ(os.sta_tsk(1), itron::E_OK);
    EXPECT_EQ(os.sta_tsk(1), itron::E_OBJ);  // not DORMANT anymore
    EXPECT_EQ(os.chg_pri(9, 3), itron::E_NOEXS);
    EXPECT_EQ(os.get_pri(1, nullptr), itron::E_PAR);
    EXPECT_EQ(os.cre_sem(-1, {}), itron::E_ID);
    EXPECT_EQ(os.cre_sem(1, {.isemcnt = 5, .maxsem = 2}), itron::E_PAR);
    EXPECT_EQ(os.sig_sem(1), itron::E_NOEXS);
    EXPECT_EQ(os.wai_sem(1), itron::E_NOEXS);
    EXPECT_EQ(os.cre_dtq(0, {}), itron::E_ID);
    EXPECT_EQ(os.snd_dtq(7, 0), itron::E_NOEXS);
    itron::VP_INT v = 0;
    EXPECT_EQ(os.rcv_dtq(nullptr, 1), itron::E_PAR);
    EXPECT_EQ(os.rcv_dtq(&v, 1), itron::E_NOEXS);
    // Task-context calls made from outside any task:
    EXPECT_EQ(os.slp_tsk(), itron::E_CTX);
    EXPECT_EQ(os.dly_tsk(1_ms), itron::E_CTX);
    os.start();
    k.run();
}

TEST(ItronPersonality, SemaphoreMaxCountAndPolling) {
    Kernel k;
    itron::ItronOs os{k};
    ASSERT_EQ(os.cre_sem(1, {.isemcnt = 1, .maxsem = 2, .name = "s"}), itron::E_OK);
    EXPECT_EQ(os.sig_sem(1), itron::E_OK);     // 1 -> 2
    EXPECT_EQ(os.sig_sem(1), itron::E_QOVR);   // at maxsem
    EXPECT_EQ(os.semaphore_count(1), 2u);
    EXPECT_EQ(os.pol_sem(1), itron::E_OK);     // 2 -> 1
    EXPECT_EQ(os.pol_sem(1), itron::E_OK);     // 1 -> 0
    EXPECT_EQ(os.pol_sem(1), itron::E_TMOUT);  // empty, polling never blocks
    EXPECT_EQ(os.twai_sem(1, SimTime::zero()), itron::E_TMOUT);  // TMO_POL
}

TEST(ItronPersonality, WakeupCounting) {
    Kernel k;
    itron::ItronOs os{k};
    SimTime first{};
    SimTime second{};
    os.cre_tsk(1, {.name = "sleeper", .itskpri = 5, .task = [&] {
                       os.core().time_wait(1_ms);
                       EXPECT_EQ(os.slp_tsk(), itron::E_OK);  // queued wakeup: no block
                       first = k.now();
                       EXPECT_EQ(os.slp_tsk(), itron::E_OK);  // real suspension
                       second = k.now();
                   }});
    os.cre_tsk(2, {.name = "waker", .itskpri = 1, .task = [&] {
                       EXPECT_EQ(os.wup_tsk(1), itron::E_OK);  // target awake: wupcnt=1
                       EXPECT_EQ(os.dly_tsk(3_ms), itron::E_OK);
                       EXPECT_EQ(os.wup_tsk(1), itron::E_OK);  // target asleep: wakes it
                   }});
    ASSERT_EQ(os.sta_tsk(1), itron::E_OK);
    ASSERT_EQ(os.sta_tsk(2), itron::E_OK);
    os.start();
    k.run();
    EXPECT_EQ(first.ns(), milliseconds(1).ns());
    EXPECT_EQ(second.ns(), milliseconds(3).ns());
}

TEST(ItronPersonality, CanWupDrainsQueuedWakeups) {
    Kernel k;
    itron::ItronOs os{k};
    SimTime woke{};
    os.cre_tsk(1, {.name = "sleeper", .itskpri = 5, .task = [&] {
                       EXPECT_EQ(os.slp_tsk(), itron::E_OK);
                       woke = k.now();
                   }});
    os.cre_tsk(2, {.name = "waker", .itskpri = 1, .task = [&] {
                       EXPECT_EQ(os.wup_tsk(1), itron::E_OK);
                       EXPECT_EQ(os.wup_tsk(1), itron::E_OK);
                       unsigned n = 99;
                       EXPECT_EQ(os.can_wup(1, &n), itron::E_OK);
                       EXPECT_EQ(n, 2u);  // both wakeups were still queued
                       EXPECT_EQ(os.dly_tsk(2_ms), itron::E_OK);
                       EXPECT_EQ(os.wup_tsk(1), itron::E_OK);
                   }});
    ASSERT_EQ(os.sta_tsk(1), itron::E_OK);
    ASSERT_EQ(os.sta_tsk(2), itron::E_OK);
    os.start();
    k.run();
    // The canceled wakeups must not satisfy the sleep: it blocks until 2 ms.
    EXPECT_EQ(woke.ns(), milliseconds(2).ns());
}

TEST(ItronPersonality, ExtTskAndTerTsk) {
    Kernel k;
    itron::ItronOs os{k};
    bool after_ext = false;
    os.cre_tsk(1, {.name = "quitter", .itskpri = 1, .task = [&] {
                       os.core().time_wait(1_ms);
                       os.ext_tsk();
                       after_ext = true;  // must be unreachable
                   }});
    os.cre_tsk(2, {.name = "victim", .itskpri = 5, .task = [&] {
                       os.core().time_wait(10_ms);
                   }});
    os.cre_tsk(3, {.name = "killer", .itskpri = 2, .task = [&] {
                       os.core().time_wait(2_ms);
                       EXPECT_EQ(os.ter_tsk(3), itron::E_OBJ);  // self: use ext_tsk
                       EXPECT_EQ(os.ter_tsk(2), itron::E_OK);
                       EXPECT_EQ(os.ter_tsk(2), itron::E_OBJ);  // already gone
                   }});
    ASSERT_EQ(os.sta_tsk(1), itron::E_OK);
    ASSERT_EQ(os.sta_tsk(2), itron::E_OK);
    ASSERT_EQ(os.sta_tsk(3), itron::E_OK);
    os.start();
    k.run();
    EXPECT_FALSE(after_ext);
    EXPECT_EQ(os.task(1)->state(), TaskState::Terminated);
    EXPECT_EQ(os.task(2)->state(), TaskState::Terminated);
    EXPECT_LT(k.now().ns(), milliseconds(10).ns());  // victim's exec never completed
}

TEST(ItronPersonality, ChangePriorityReschedules) {
    Kernel k;
    itron::ItronOs os{k};
    std::vector<std::string> order;
    os.cre_tsk(1, {.name = "A", .itskpri = 1, .task = [&] {
                       order.push_back("A0");
                       os.core().time_wait(1_ms);
                       EXPECT_EQ(os.chg_pri(1, 10), itron::E_OK);  // drop below B
                       order.push_back("A1");
                       os.core().time_wait(1_ms);
                   }});
    os.cre_tsk(2, {.name = "B", .itskpri = 5, .task = [&] {
                       order.push_back("B0");
                       os.core().time_wait(1_ms);
                       order.push_back("B1");
                   }});
    ASSERT_EQ(os.sta_tsk(1), itron::E_OK);
    ASSERT_EQ(os.sta_tsk(2), itron::E_OK);
    os.start();
    k.run();
    // Lowering A's own priority switches to B inside the chg_pri call; A1 is
    // only logged after B ran to completion.
    const std::vector<std::string> expected{"A0", "B0", "B1", "A1"};
    EXPECT_EQ(order, expected);
    itron::PRI p = 0;
    EXPECT_EQ(os.get_pri(1, &p), itron::E_OK);
    EXPECT_EQ(p, 10);
}

// ---- exploration works on both personalities -------------------------------

TEST(Conformance, ExplorerCoversBothPersonalities) {
    // Two equal-priority two-step tasks: every dispatch is a tie, so the
    // schedule space has more than one path. Both personalities must expose
    // the *same* space to the explorer, because choice points live in the
    // shared core, not in the API layer.
    auto paper_build = [](explore::Run& run) {
        auto& os = run.make<RtosModel>(run.kernel());
        run.make<trace::RtosTraceAdapter>(os, run.trace());
        os.init();
        for (const char* n : {"A", "B"}) {
            Task* t = os.task_create(n, TaskType::Aperiodic, {}, {}, 1);
            run.kernel().spawn(n, [&os, t] {
                os.task_activate(t);
                os.time_wait(1_ms);
                os.time_wait(1_ms);
                os.task_terminate();
            });
        }
        os.start();
    };
    auto itron_build = [](explore::Run& run) {
        auto& os = run.make<itron::ItronOs>(run.kernel());
        run.make<trace::RtosTraceAdapter>(os.core(), run.trace());
        itron::ID id = 1;
        for (const char* n : {"A", "B"}) {
            os.cre_tsk(id, {.name = n, .itskpri = 1, .task = [&os] {
                                os.core().time_wait(1_ms);
                                os.core().time_wait(1_ms);
                            }});
            os.sta_tsk(id);
            ++id;
        }
        os.start();
    };
    explore::ExploreConfig ec;
    ec.preemption_bound = 2;
    const auto paper = explore::Explorer{paper_build, ec}.explore();
    const auto itron_r = explore::Explorer{itron_build, ec}.explore();
    EXPECT_TRUE(paper.exhausted);
    EXPECT_TRUE(itron_r.exhausted);
    EXPECT_GT(paper.stats.paths, 1u);
    EXPECT_EQ(paper.stats.paths, itron_r.stats.paths);
    EXPECT_EQ(paper.stats.choice_points, itron_r.stats.choice_points);
    EXPECT_TRUE(paper.violations.empty());
    EXPECT_TRUE(itron_r.violations.empty());
}

TEST(Conformance, ExplorerFindsDeadlockInItronModel) {
    // Classic cross-order semaphore deadlock written purely against the ITRON
    // API: the core-level deadlock checker must flag it without any
    // personality-specific support.
    auto build = [](explore::Run& run) {
        auto& os = run.make<itron::ItronOs>(run.kernel());
        run.make<trace::RtosTraceAdapter>(os.core(), run.trace());
        os.cre_sem(1, {.isemcnt = 1, .maxsem = 1, .name = "s1"});
        os.cre_sem(2, {.isemcnt = 1, .maxsem = 1, .name = "s2"});
        os.cre_tsk(1, {.name = "fwd", .itskpri = 1, .task = [&os] {
                           os.wai_sem(1);
                           os.dly_tsk(1_ms);
                           os.wai_sem(2);
                           os.sig_sem(2);
                           os.sig_sem(1);
                       }});
        os.cre_tsk(2, {.name = "rev", .itskpri = 2, .task = [&os] {
                           os.wai_sem(2);
                           os.dly_tsk(1_ms);
                           os.wai_sem(1);
                           os.sig_sem(1);
                           os.sig_sem(2);
                       }});
        os.sta_tsk(1);
        os.sta_tsk(2);
        os.start();
    };
    const auto r = explore::Explorer{build}.explore();
    ASSERT_FALSE(r.violations.empty());
    EXPECT_TRUE(std::any_of(r.violations.begin(), r.violations.end(), [](const auto& v) {
        return v.kind == explore::Violation::Kind::Deadlock;
    }));
}

}  // namespace
