// slm::fault: deterministic fault injection + RTOS recovery services.
//
// Covers the plan grammar, the seeded injector (replay identity above all),
// every injection mechanism (exec scale/jitter, ISR drop/delay/spurious,
// crash-at-dispatch, mutex-holder stall), the recovery services (watchdogs,
// task_restart, deadline-miss policies on both OS personalities), campaign
// sweeps, and the explore integration. The suite is registered under both
// context backends (see tests/CMakeLists.txt).

#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "explore/explore.hpp"
#include "fault/campaign.hpp"
#include "obs/metrics.hpp"
#include "rtos/itron.hpp"
#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

using namespace slm;
using namespace slm::sim;
using namespace slm::rtos;
using namespace slm::fault;
using namespace slm::time_literals;

namespace {

FaultPlan plan_of(const std::string& text) {
    std::string err;
    const std::optional<FaultPlan> p = FaultPlan::parse(text, &err);
    EXPECT_TRUE(p.has_value()) << err;
    return p.value_or(FaultPlan{});
}

std::string csv_of(const trace::TraceRecorder& rec) {
    std::ostringstream os;
    rec.write_csv(os);
    return os.str();
}

/// Counts recovery-related observer callbacks.
struct RecoveryWatch final : OsObserver {
    int misses = 0;
    int watchdogs = 0;
    int restarts = 0;
    int crashes = 0;
    SimTime last_watchdog{};
    void on_deadline_miss(const Task&, SimTime, SimTime) override { ++misses; }
    void on_watchdog(const Task&, SimTime now) override {
        ++watchdogs;
        last_watchdog = now;
    }
    void on_task_restart(const Task&, SimTime) override { ++restarts; }
    void on_task_crash(const Task&, SimTime) override { ++crashes; }
};

}  // namespace

// ---- plan grammar ----

TEST(FaultPlan, ParsesFullGrammar) {
    const FaultPlan p = plan_of(
        "# a comment line\n"
        "seed 42\n"
        "exec_scale transcoder factor=1.5 after=10ms until=20ms\n"
        "exec_jitter * max=500us p=0.25\n"
        "isr_drop ext p=0.1\n"
        "isr_delay timer delay=200us\n"
        "isr_spurious ext extra=3\n"
        "crash logger at=5ms\n"
        "mutex_stall bus stall=100us p=0.5   # trailing comment\n");
    EXPECT_EQ(p.seed, 42u);
    ASSERT_EQ(p.specs.size(), 7u);

    EXPECT_EQ(p.specs[0].kind, FaultKind::ExecScale);
    EXPECT_EQ(p.specs[0].target, "transcoder");
    EXPECT_DOUBLE_EQ(p.specs[0].factor, 1.5);
    EXPECT_EQ(p.specs[0].after, 10_ms);
    EXPECT_EQ(p.specs[0].until, 20_ms);

    EXPECT_EQ(p.specs[1].kind, FaultKind::ExecJitter);
    EXPECT_EQ(p.specs[1].target, "*");
    EXPECT_EQ(p.specs[1].amount, 500_us);
    EXPECT_DOUBLE_EQ(p.specs[1].probability, 0.25);

    EXPECT_EQ(p.specs[2].kind, FaultKind::IsrDrop);
    EXPECT_EQ(p.specs[3].kind, FaultKind::IsrDelay);
    EXPECT_EQ(p.specs[3].amount, 200_us);
    EXPECT_EQ(p.specs[4].kind, FaultKind::IsrSpurious);
    EXPECT_EQ(p.specs[4].extra, 3u);

    EXPECT_EQ(p.specs[5].kind, FaultKind::Crash);
    ASSERT_TRUE(p.specs[5].at.has_value());
    EXPECT_EQ(*p.specs[5].at, 5_ms);

    EXPECT_EQ(p.specs[6].kind, FaultKind::MutexStall);
    EXPECT_EQ(p.specs[6].amount, 100_us);
}

TEST(FaultPlan, BareNumbersAreNanoseconds) {
    const FaultPlan p = plan_of("isr_delay ext delay=1500\n");
    EXPECT_EQ(p.specs[0].amount, SimTime{1500});
}

TEST(FaultPlan, RejectsMalformedInputWithLineNumbers) {
    const auto expect_error = [](const std::string& text, const char* line_tag) {
        std::string err;
        EXPECT_FALSE(FaultPlan::parse(text, &err).has_value()) << text;
        EXPECT_NE(err.find(line_tag), std::string::npos)
            << "error \"" << err << "\" should name " << line_tag;
    };
    expect_error("warp_core breach\n", "line 1");
    expect_error("seed\n", "line 1");
    expect_error("seed banana\n", "line 1");
    expect_error("exec_scale\n", "line 1");                       // no target
    expect_error("exec_scale t\n", "line 1");                     // no factor=
    expect_error("exec_scale t factor=fast\n", "line 1");
    expect_error("exec_jitter t\n", "line 1");                    // no max=
    expect_error("isr_delay t delay=10lightyears\n", "line 1");
    expect_error("crash t p=1.5\n", "line 1");                    // p out of range
    expect_error("isr_spurious t extra=0\n", "line 1");
    expect_error("mutex_stall m stall=1ms color=red\n", "line 1");
    expect_error("crash t banana\n", "line 1");                   // not key=value
    expect_error("seed 1\nexec_scale t\n", "line 2");             // line numbers count
}

// ---- injection mechanisms ----

TEST(FaultInjector, ExecScaleDoublesDelaysInsideWindow) {
    Kernel k;
    RtosModel os{k};
    FaultInjector inj(plan_of("exec_scale worker factor=2.0 after=10us until=30us\n"));
    inj.attach(os);
    os.init();
    Task* t = os.task_create("worker", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(t, [&] {
        os.time_wait(5_us);   // before window: 5 us charged      -> now 5
        os.time_wait(5_us);   // starts at 5 < 10: still unscaled -> now 10
        os.time_wait(5_us);   // inside window: charged as 10     -> now 20
        os.time_wait(5_us);   // inside window: charged as 10     -> now 30
        os.time_wait(5_us);   // at 30, window closed: 5          -> now 35
    });
    os.task_start(t);
    os.start();
    k.run();
    EXPECT_EQ(k.now(), 35_us);
    EXPECT_EQ(inj.stats().exec_scaled, 2u);
    EXPECT_EQ(t->stats().exec_time, 35_us);  // the scaled time is real CPU time
}

TEST(FaultInjector, ExecJitterAddsBoundedDeterministicDelay) {
    const auto end_time_with_seed = [](std::uint64_t seed) {
        Kernel k;
        RtosModel os{k};
        FaultInjector inj(plan_of("exec_jitter worker max=10us\n"), seed);
        inj.attach(os);
        os.init();
        Task* t = os.task_create("worker", TaskType::Aperiodic, {}, {}, 1);
        os.task_set_body(t, [&] { os.time_wait(20_us); });
        os.task_start(t);
        os.start();
        k.run();
        EXPECT_EQ(inj.stats().exec_jittered, 1u);
        return k.now();
    };
    const SimTime a = end_time_with_seed(7);
    EXPECT_GE(a, 20_us);
    EXPECT_LE(a, 30_us);
    EXPECT_EQ(a, end_time_with_seed(7));  // same seed, same jitter
    bool any_different = false;
    for (std::uint64_t s = 1; s <= 8 && !any_different; ++s) {
        any_different = end_time_with_seed(s) != a;
    }
    EXPECT_TRUE(any_different) << "eight seeds all produced identical jitter";
}

TEST(FaultInjector, IsrDropSuppressesDelivery) {
    Kernel k;
    RtosModel os{k};
    FaultInjector inj(plan_of("isr_drop ext\n"));
    inj.attach(os);
    os.init();
    int fires = 0;
    k.spawn("src", [&] {
        k.waitfor(10_us);
        os.isr_deliver("ext", [&] { ++fires; });
        os.isr_deliver("other", [&] { ++fires; });  // different line: untouched
    });
    os.start();
    k.run();
    EXPECT_EQ(fires, 1);
    EXPECT_EQ(inj.stats().isr_dropped, 1u);
}

TEST(FaultInjector, IsrDelayPostponesDelivery) {
    Kernel k;
    RtosModel os{k};
    FaultInjector inj(plan_of("isr_delay ext delay=5us\n"));
    inj.attach(os);
    os.init();
    SimTime fired_at{};
    k.spawn("src", [&] {
        k.waitfor(10_us);
        os.isr_deliver("ext", [&] { fired_at = k.now(); });
    });
    os.start();
    k.run();
    EXPECT_EQ(fired_at, 15_us);
    EXPECT_EQ(inj.stats().isr_delayed, 1u);
}

TEST(FaultInjector, IsrSpuriousRepeatsDelivery) {
    Kernel k;
    RtosModel os{k};
    FaultInjector inj(plan_of("isr_spurious ext extra=2\n"));
    inj.attach(os);
    os.init();
    int fires = 0;
    k.spawn("src", [&] {
        k.waitfor(10_us);
        os.isr_deliver("ext", [&] { ++fires; });
    });
    os.start();
    k.run();
    EXPECT_EQ(fires, 3);  // the real one + 2 spurious
    EXPECT_EQ(inj.stats().isr_spurious, 2u);
}

TEST(FaultInjector, CrashAtDispatchKillsTaskAndReleasesMutex) {
    Kernel k;
    RtosModel os{k};
    FaultInjector inj(plan_of("crash holder at=5us\n"));
    inj.attach(os);
    os.init();
    OsMutex m{os, OsMutex::Protocol::None, "m"};
    bool waiter_got_lock = false;

    Task* holder = os.task_create("holder", TaskType::Aperiodic, {}, {}, 3);
    os.task_set_body(holder, [&] {
        m.lock();
        os.time_wait(50_us);
        m.unlock();
    });
    os.task_start(holder);

    // Preempts the holder after the crash deadline so it gets re-dispatched.
    Task* noise = os.task_create("noise", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(noise, [&] {
        os.task_delay(6_us);
        os.time_wait(1_us);
    });
    os.task_start(noise);

    Task* waiter = os.task_create("waiter", TaskType::Aperiodic, {}, {}, 2);
    os.task_set_body(waiter, [&] {
        os.task_delay(2_us);
        m.lock();  // blocks on holder; only the crash cleanup can free it
        waiter_got_lock = true;
        m.unlock();
    });
    os.task_start(waiter);

    os.start();
    k.run();
    EXPECT_EQ(holder->state(), TaskState::Terminated);
    EXPECT_TRUE(waiter_got_lock) << "crash cleanup must force-release the mutex";
    EXPECT_EQ(os.stats().crashes, 1u);
    EXPECT_EQ(inj.stats().crashes_injected, 1u);
}

TEST(FaultInjector, CrashIsOneShotAcrossRestart) {
    // A crash rule fires once; the restarted incarnation must run clean.
    Kernel k;
    RecoveryWatch watch;  // outlives the core: ~OsCore notifies observers
    RtosModel os{k};
    FaultInjector inj(plan_of("crash victim at=3us\n"));
    inj.attach(os);
    os.init();
    os.add_observer(&watch);
    Task* victim = os.task_create("victim", TaskType::Aperiodic, {}, {}, 2);
    // Two chunks: the boundary at 5 us lets the higher-priority noise task
    // preempt, so the victim is re-dispatched (and crashes) mid-body.
    os.task_set_body(victim, [&] {
        os.time_wait(5_us);
        os.time_wait(5_us);
    });
    os.task_start(victim);
    Task* noise = os.task_create("noise", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(noise, [&] {
        os.task_delay(4_us);      // ready at 4 us: preempts at the 5 us boundary
        os.time_wait(1_us);
        os.task_delay(2_us);      // yield: the victim re-dispatches at 6 us, dies
        os.task_restart(victim);  // revive the crashed task at 8 us
    });
    os.task_start(noise);
    os.start();
    k.run();
    EXPECT_EQ(watch.crashes, 1);
    EXPECT_EQ(watch.restarts, 1);
    EXPECT_EQ(victim->stats().restarts, 1u);
    EXPECT_EQ(victim->stats().completions, 1u);  // second incarnation finished
    EXPECT_EQ(inj.stats().crashes_injected, 1u);
}

TEST(FaultInjector, MutexStallChargesHolder) {
    Kernel k;
    RtosModel os{k};
    FaultInjector inj(plan_of("mutex_stall m stall=10us\n"));
    inj.attach(os);
    os.init();
    OsMutex m{os, OsMutex::Protocol::None, "m"};
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(t, [&] {
        m.lock();
        os.time_wait(5_us);
        m.unlock();
    });
    os.task_start(t);
    os.start();
    k.run();
    EXPECT_EQ(k.now(), 15_us);  // 5 us of work + 10 us injected stall
    EXPECT_EQ(inj.stats().stalls_injected, 1u);
}

TEST(FaultInjector, NoHookPathIsUntouched) {
    // The same model with and without an attached injector whose plan
    // matches nothing must produce identical traces.
    const auto run_once = [](bool with_inert_injector) {
        Kernel k;
        trace::TraceRecorder rec;
        RtosModel os{k};
        trace::RtosTraceAdapter tracer{os, rec};
        FaultInjector inj(plan_of("exec_scale nobody factor=9.0\n"));
        if (with_inert_injector) {
            inj.attach(os);
        }
        os.init();
        for (const char* name : {"a", "b"}) {
            Task* t = os.task_create(name, TaskType::Aperiodic, {}, {}, 1);
            os.task_set_body(t, [&] { os.time_wait(10_us); });
            os.task_start(t);
        }
        os.start();
        k.run();
        return csv_of(rec);
    };
    EXPECT_EQ(run_once(false), run_once(true));
}

// ---- watchdogs ----

TEST(Watchdog, NotifyFiresOnceAfterTimeout) {
    Kernel k;
    RecoveryWatch watch;  // outlives the core: ~OsCore notifies observers
    RtosModel os{k};
    os.init();
    os.add_observer(&watch);
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(t, [&] { os.task_sleep(); });  // hangs forever
    os.task_start(t);
    os.watchdog_arm(t, 10_us, MissPolicy::Notify);
    EXPECT_TRUE(os.watchdog_armed(t));
    os.start();
    k.run_until(100_us);
    EXPECT_EQ(watch.watchdogs, 1);
    EXPECT_EQ(watch.last_watchdog, 10_us);
    EXPECT_EQ(os.stats().watchdog_fires, 1u);
    EXPECT_EQ(t->state(), TaskState::Suspended);  // Notify does not touch the task
    EXPECT_FALSE(os.watchdog_armed(t));          // one-shot until re-armed/kicked
}

TEST(Watchdog, KickRestartsTheCountdown) {
    Kernel k;
    RecoveryWatch watch;  // outlives the core: ~OsCore notifies observers
    RtosModel os{k};
    os.init();
    os.add_observer(&watch);
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(t, [&] {
        for (int i = 0; i < 4; ++i) {
            os.time_wait(6_us);      // always inside the 10 us budget
            os.watchdog_kick(t);
        }
    });
    os.task_start(t);
    os.watchdog_arm(t, 10_us, MissPolicy::Kill);
    os.start();
    k.run_until(100_us);
    EXPECT_EQ(watch.watchdogs, 0);
    EXPECT_EQ(t->stats().completions, 1u);  // survived: kicked in time, then done
}

TEST(Watchdog, DisarmCancels) {
    Kernel k;
    RecoveryWatch watch;  // outlives the core: ~OsCore notifies observers
    RtosModel os{k};
    os.init();
    os.add_observer(&watch);
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(t, [&] {
        os.time_wait(5_us);
        os.watchdog_disarm(t);
        os.time_wait(50_us);  // would have tripped the 10 us watchdog
    });
    os.task_start(t);
    os.watchdog_arm(t, 10_us, MissPolicy::Kill);
    os.start();
    k.run_until(100_us);
    EXPECT_EQ(watch.watchdogs, 0);
    EXPECT_EQ(t->stats().completions, 1u);
}

TEST(Watchdog, KillTerminatesHungTask) {
    Kernel k;
    RtosModel os{k};
    os.init();
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(t, [&] { os.task_sleep(); });
    os.task_start(t);
    os.watchdog_arm(t, 10_us, MissPolicy::Kill);
    os.start();
    k.run_until(100_us);
    EXPECT_EQ(t->state(), TaskState::Terminated);
    EXPECT_EQ(os.stats().watchdog_fires, 1u);
}

TEST(Watchdog, RestartRevivesHungTask) {
    Kernel k;
    RtosModel os{k};
    os.init();
    int attempt = 0;
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(t, [&] {
        if (attempt++ == 0) {
            os.task_sleep();  // first incarnation hangs
        }
        os.time_wait(5_us);   // later incarnations finish promptly
    });
    os.task_start(t);
    os.watchdog_arm(t, 10_us, MissPolicy::Restart);
    os.start();
    k.run_until(100_us);
    EXPECT_EQ(t->stats().restarts, 1u);
    EXPECT_EQ(t->stats().completions, 1u);
    EXPECT_EQ(t->state(), TaskState::Terminated);
    EXPECT_EQ(os.stats().watchdog_fires, 1u);  // the recovery run kept it quiet
}

TEST(Watchdog, CrashThenWatchdogRestartRecovers) {
    // The full recovery chain: fault-injected crash -> the armed watchdog is
    // deliberately left pending -> it fires -> Restart revives the task ->
    // the (one-shot) crash does not recur and the task completes.
    Kernel k;
    RecoveryWatch watch;  // outlives the core: ~OsCore notifies observers
    RtosModel os{k};
    FaultInjector inj(plan_of("crash srv at=4us\n"));
    inj.attach(os);
    os.init();
    os.add_observer(&watch);
    Task* srv = os.task_create("srv", TaskType::Aperiodic, {}, {}, 3);
    // The chunk boundary at 6 us lets noise preempt; srv's re-dispatch at
    // 7 us is past the 4 us crash point and kills the first incarnation.
    os.task_set_body(srv, [&] {
        os.time_wait(6_us);
        os.time_wait(14_us);
    });
    os.task_start(srv);
    // Longer than the 20 us body, so the recovery incarnation can finish
    // before its (re-armed) watchdog trips again.
    os.watchdog_arm(srv, 25_us, MissPolicy::Restart);
    Task* noise = os.task_create("noise", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(noise, [&] {
        os.task_delay(5_us);
        os.time_wait(1_us);
    });
    os.task_start(noise);
    os.start();
    k.run_until(200_us);
    EXPECT_EQ(watch.crashes, 1);
    EXPECT_GE(watch.watchdogs, 1);
    EXPECT_GE(srv->stats().restarts, 1u);
    EXPECT_EQ(srv->stats().completions, 1u);
    EXPECT_EQ(srv->state(), TaskState::Terminated);
}

// ---- deadline-miss policies, both personalities ----

namespace {

struct PolicyOutcome {
    std::string csv;
    std::uint64_t completions = 0;
    std::uint64_t misses = 0;  ///< OS-level: survives the Restart stats reset
    std::uint64_t skipped = 0;
    std::uint64_t restarts = 0;
    int notified = 0;
    bool terminated = false;
};

/// One overrunning periodic task under `policy`, built on either personality.
/// The periodic machinery is personality-neutral core API; the ITRON flavor
/// wraps the same core, so the traces must match byte for byte.
PolicyOutcome run_policy_scenario(MissPolicy policy, bool use_itron) {
    Kernel k;
    trace::TraceRecorder rec;
    RecoveryWatch watch;  // outlives the core: ~OsCore notifies observers
    std::unique_ptr<RtosModel> paper;
    std::unique_ptr<itron::ItronOs> it;
    OsCore* core = nullptr;
    if (use_itron) {
        it = std::make_unique<itron::ItronOs>(k);
        core = &it->core();
    } else {
        paper = std::make_unique<RtosModel>(k);
        paper->init();
        core = paper.get();
    }
    trace::RtosTraceAdapter tracer{*core, rec};
    FaultInjector inj(plan_of("exec_scale job factor=2.0 after=15us until=55us\n"));
    inj.attach(*core);
    core->add_observer(&watch);

    TaskParams p;
    p.name = "job";
    p.type = TaskType::Periodic;
    p.priority = 1;
    p.period = 10_us;
    p.deadline = 10_us;
    p.miss_policy = policy;
    Task* t = core->task_create(p);
    core->task_set_body(t, [core] {
        for (int i = 0; i < 8; ++i) {
            core->time_wait(6_us);  // 12 us inside the fault window: misses
            core->task_endcycle();
        }
    });
    core->task_start(t);
    if (use_itron) {
        it->start();
    } else {
        paper->start();
    }
    k.run_until(300_us);
    core->remove_observer(&watch);

    PolicyOutcome out;
    out.csv = csv_of(rec);
    out.completions = t->stats().completions;
    out.misses = core->stats().deadline_misses;
    out.skipped = t->stats().jobs_skipped;
    out.restarts = t->stats().restarts;
    out.notified = watch.misses;
    out.terminated = t->state() == TaskState::Terminated;
    return out;
}

}  // namespace

TEST(MissPolicy, AllFivePoliciesOnBothPersonalities) {
    for (const MissPolicy policy :
         {MissPolicy::Ignore, MissPolicy::Notify, MissPolicy::SkipJob,
          MissPolicy::Restart, MissPolicy::Kill}) {
        SCOPED_TRACE(to_string(policy));
        const PolicyOutcome paper = run_policy_scenario(policy, false);
        const PolicyOutcome itron = run_policy_scenario(policy, true);
        EXPECT_EQ(paper.csv, itron.csv) << "trace divergence between personalities";
        EXPECT_EQ(paper.completions, itron.completions);
        EXPECT_EQ(paper.misses, itron.misses);
        EXPECT_EQ(paper.skipped, itron.skipped);
        EXPECT_EQ(paper.restarts, itron.restarts);

        EXPECT_GT(paper.misses, 0u) << "the fault window must cause misses";
        switch (policy) {
            case MissPolicy::Ignore:
                EXPECT_EQ(paper.notified, 0);
                EXPECT_EQ(paper.skipped, 0u);
                EXPECT_EQ(paper.restarts, 0u);
                break;
            case MissPolicy::Notify:
                EXPECT_GT(paper.notified, 0);
                EXPECT_EQ(paper.skipped, 0u);
                EXPECT_EQ(paper.restarts, 0u);
                break;
            case MissPolicy::SkipJob:
                EXPECT_GT(paper.skipped, 0u);
                break;
            case MissPolicy::Restart:
                EXPECT_GT(paper.restarts, 0u);
                break;
            case MissPolicy::Kill:
                EXPECT_TRUE(paper.terminated);
                EXPECT_LT(paper.completions, 8u);
                break;
        }
    }
}

// ---- ITRON personality wrappers ----

TEST(ItronFault, WatchdogAndRestartServices) {
    Kernel k;
    itron::ItronOs os{k};
    int runs = 0;
    ASSERT_EQ(os.cre_tsk(1, {.name = "t", .itskpri = 1,
                             .task = [&] {
                                 ++runs;
                                 os.core().time_wait(10_us);
                             }}),
              itron::E_OK);

    EXPECT_EQ(os.sta_wdg(1, SimTime{}, MissPolicy::Kill), itron::E_PAR);
    EXPECT_EQ(os.kck_wdg(1), itron::E_OBJ);      // never armed
    EXPECT_EQ(os.rst_tsk(1), itron::E_OBJ);      // not started yet
    EXPECT_EQ(os.rst_tsk(99), itron::E_NOEXS);
    EXPECT_EQ(os.sta_wdg(99, 10_us, MissPolicy::Kill), itron::E_NOEXS);

    ASSERT_EQ(os.sta_tsk(1), itron::E_OK);
    EXPECT_EQ(os.sta_wdg(1, 50_us, MissPolicy::Notify), itron::E_OK);
    EXPECT_EQ(os.kck_wdg(1), itron::E_OK);
    EXPECT_EQ(os.stp_wdg(1), itron::E_OK);
    os.start();
    k.run();
    EXPECT_EQ(runs, 1);

    // The task is DORMANT (terminated) now: sta_tsk revives it...
    EXPECT_EQ(os.sta_tsk(1), itron::E_OK);
    k.run();
    EXPECT_EQ(runs, 2);
    // ...and rst_tsk on a dormant task is an error (nothing to restart).
    EXPECT_EQ(os.rst_tsk(1), itron::E_OBJ);
}

// ---- determinism & campaigns ----

namespace {

/// A small contended model with probabilistic faults: enough moving parts
/// that different seeds genuinely diverge.
std::string run_seeded_model(FaultInjector& inj) {
    Kernel k;
    trace::TraceRecorder rec;
    RtosModel os{k};
    trace::RtosTraceAdapter tracer{os, rec};
    inj.attach(os);
    os.init();
    for (int i = 0; i < 3; ++i) {
        Task* t = os.task_create("w" + std::to_string(i), TaskType::Aperiodic, {}, {},
                                 i + 1);
        os.task_set_body(t, [&os] {
            for (int j = 0; j < 4; ++j) {
                os.time_wait(7_us);
            }
        });
        os.task_start(t);
    }
    k.spawn("irq", [&] {
        for (int j = 0; j < 4; ++j) {
            k.waitfor(11_us);
            os.isr_deliver("ext", [] {});
        }
    });
    os.start();
    k.run();
    return csv_of(rec);
}

const char* kSeededPlan =
    "exec_jitter * max=3us p=0.5\n"
    "isr_delay ext delay=2us p=0.5\n"
    "isr_drop ext p=0.2\n";

}  // namespace

TEST(FaultInjector, SameSeedReplaysByteIdentically) {
    FaultInjector a(plan_of(kSeededPlan), 123);
    FaultInjector b(plan_of(kSeededPlan), 123);
    const std::string ta = run_seeded_model(a);
    const std::string tb = run_seeded_model(b);
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(a.stats().total(), b.stats().total());
    EXPECT_EQ(a.stats().exec_jittered, b.stats().exec_jittered);
    EXPECT_EQ(a.stats().isr_dropped, b.stats().isr_dropped);
    EXPECT_EQ(a.stats().isr_delayed, b.stats().isr_delayed);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
    std::set<std::string> traces;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        FaultInjector inj(plan_of(kSeededPlan), seed);
        traces.insert(run_seeded_model(inj));
    }
    EXPECT_GT(traces.size(), 1u) << "six seeds all produced the same schedule";
}

TEST(Campaign, SweepIsDeterministicPerSeed) {
    const FaultPlan plan = plan_of(kSeededPlan);
    const auto sweep = [&] {
        return run_campaign(plan, {.first_seed = 10, .runs = 4},
                            [](FaultInjector& inj, CampaignRun& out) {
                                out.trace_csv = run_seeded_model(inj);
                            });
    };
    const CampaignResult a = sweep();
    const CampaignResult b = sweep();
    ASSERT_EQ(a.runs.size(), 4u);
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].seed, 10 + i);  // driver fills the seed
        EXPECT_FALSE(a.runs[i].trace_csv.empty());
        EXPECT_EQ(a.runs[i].trace_csv, b.runs[i].trace_csv);
        EXPECT_EQ(a.runs[i].injections, b.runs[i].injections);
    }
    EXPECT_EQ(a.total_injections(), b.total_injections());
}

// ---- explore integration ----

TEST(Campaign, FaultExplorerKeepsReplayIdentity) {
    // Two equal-priority tasks (a schedule choice point) under a fixed fault
    // plan: exploration enumerates schedules, and replaying a found schedule
    // reproduces its trace byte for byte because the injector is re-seeded
    // identically per path.
    FaultPlan plan = plan_of("exec_scale t0 factor=2.0\n");
    const auto build = [](explore::Run& run, FaultInjector&) {
        auto& os = run.make<rtos::RtosModel>(run.kernel());
        run.make<trace::RtosTraceAdapter>(os, run.trace());
        os.init();
        for (const char* name : {"t0", "t1"}) {
            Task* t = os.task_create(name, TaskType::Aperiodic, {}, {}, 1);
            run.kernel().spawn(name, [&os, t] {
                os.task_activate(t);
                os.time_wait(10_us);
                os.task_terminate();
            });
        }
        os.start();
    };
    explore::Explorer ex = make_fault_explorer(plan, 5, build);
    const explore::ExploreResult res = ex.explore();
    EXPECT_GT(res.stats.paths, 1u) << "tie-break must create schedule choices";

    explore::Explorer ex2 = make_fault_explorer(plan, 5, build);
    explore::PathResult base = ex2.replay(explore::Schedule{});
    explore::PathResult again = ex2.replay(explore::Schedule{});
    EXPECT_EQ(csv_of(base.trace), csv_of(again.trace));
    // The fault plan really bit: t0 runs 20 us, so the default path ends
    // at 30 us instead of the fault-free 20 us.
    EXPECT_EQ(base.end_time, 30_us);
}

// ---- observability ----

TEST(FaultObs, RegisterFaultStatsExportsCounters) {
    Kernel k;
    RtosModel os{k};
    FaultInjector inj(plan_of("seed 9\nexec_scale t factor=3.0\n"));
    inj.attach(os);
    os.init();
    Task* t = os.task_create("t", TaskType::Aperiodic, {}, {}, 1);
    os.task_set_body(t, [&] { os.time_wait(10_us); });
    os.task_start(t);
    os.start();
    k.run();

    obs::Registry reg;
    register_fault_stats(reg, inj);
    std::ostringstream prom;
    reg.write_prometheus(prom);
    const std::string text = prom.str();
    EXPECT_NE(text.find("slm_fault_exec_scaled_total{seed=\"9\"} 1"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("slm_fault_crashes_total{seed=\"9\"} 0"), std::string::npos);
}
