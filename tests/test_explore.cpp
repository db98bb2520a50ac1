#include "explore/explore.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"
#include "sim/kernel.hpp"
#include "sim/schedule_point.hpp"
#include "sim/time.hpp"
#include "trace/trace.hpp"

using namespace slm;
using namespace slm::time_literals;

namespace {

// The demo scenario (examples/explore_demo.cpp): two equal-priority tasks
// wake from task_delay at the same instant; crossed mutex acquisition
// deadlocks only when the wakeup tie goes the non-default way.
void build_crossed(explore::Run& run, bool fixed_lock_order) {
    rtos::RtosConfig cfg;
    cfg.cpu_name = "CPU0";
    auto& os = run.make<rtos::RtosModel>(run.kernel(), cfg);
    run.make<trace::RtosTraceAdapter>(os, run.trace());
    os.init();
    auto& m1 = run.make<rtos::OsMutex>(os, rtos::OsMutex::Protocol::None, "m1");
    auto& m2 = run.make<rtos::OsMutex>(os, rtos::OsMutex::Protocol::None, "m2");
    rtos::Task* a = os.task_create("ctrl", rtos::TaskType::Aperiodic, {}, {}, 1);
    rtos::Task* b = os.task_create("comms", rtos::TaskType::Aperiodic, {}, {}, 1);
    run.kernel().spawn("ctrl", [&os, &m1, &m2, a] {
        os.task_activate(a);
        m1.lock();
        os.task_delay(1_ms);
        m2.lock();
        os.time_wait(100_us);
        m2.unlock();
        m1.unlock();
        os.task_terminate();
    });
    run.kernel().spawn("comms", [&os, &m1, &m2, b, fixed_lock_order] {
        os.task_activate(b);
        os.task_delay(1_ms);
        rtos::OsMutex& first = fixed_lock_order ? m1 : m2;
        rtos::OsMutex& second = fixed_lock_order ? m2 : m1;
        first.lock();
        second.lock();
        os.time_wait(100_us);
        second.unlock();
        first.unlock();
        os.task_terminate();
    });
    os.start();
}

void build_three_tasks(explore::Run& run, bool traced = true) {
    auto& os = run.make<rtos::RtosModel>(run.kernel());
    if (traced) {
        run.make<trace::RtosTraceAdapter>(os, run.trace());
    }
    os.init();
    for (const char* name : {"t0", "t1", "t2"}) {
        rtos::Task* t = os.task_create(name, rtos::TaskType::Aperiodic, {}, {}, 1);
        run.kernel().spawn(name, [&os, t] {
            os.task_activate(t);
            os.time_wait(1_ms);
            os.task_terminate();
        });
    }
    os.start();
}

/// N equal-priority tasks in a ring: task i holds m<i>, sleeps, then wants
/// m<i+1>. The default schedule deadlocks with every task in the cycle.
void build_ring(explore::Run& run, int n) {
    auto& os = run.make<rtos::RtosModel>(run.kernel(), rtos::RtosConfig{});
    os.init();
    std::vector<rtos::OsMutex*> m;
    for (int i = 0; i < n; ++i) {
        m.push_back(&run.make<rtos::OsMutex>(os, rtos::OsMutex::Protocol::None,
                                             "m" + std::to_string(i)));
    }
    for (int i = 0; i < n; ++i) {
        const std::string name = "t" + std::to_string(i);
        rtos::Task* t = os.task_create(name, rtos::TaskType::Aperiodic, {}, {}, 1);
        run.kernel().spawn(name, [&os, t, own = m[i], next = m[(i + 1) % n]] {
            os.task_activate(t);
            own->lock();
            os.task_delay(1_ms);
            next->lock();
        });
    }
    os.start();
}

std::string csv_of(const trace::TraceRecorder& rec) {
    std::ostringstream os;
    rec.write_csv(os);
    return os.str();
}

/// first_failure must be exactly replay() of its schedule: same trace bytes
/// (decision markers included) and the same violations.
void expect_first_failure_is_replay(explore::Explorer& ex,
                                    const explore::ExploreResult& res) {
    ASSERT_TRUE(res.first_failure.has_value());
    const explore::PathResult& ff = *res.first_failure;
    const explore::PathResult replayed = ex.replay(ff.schedule);
    EXPECT_EQ(csv_of(ff.trace), csv_of(replayed.trace));
    EXPECT_EQ(ff.trace.count(trace::RecordKind::Marker), ff.schedule.choices.size());
    ASSERT_EQ(ff.violations.size(), replayed.violations.size());
    for (std::size_t i = 0; i < ff.violations.size(); ++i) {
        EXPECT_EQ(ff.violations[i].kind, replayed.violations[i].kind);
        EXPECT_EQ(ff.violations[i].detail, replayed.violations[i].detail);
        EXPECT_EQ(ff.violations[i].schedule, replayed.violations[i].schedule);
        EXPECT_EQ(ff.violations[i].time, replayed.violations[i].time);
    }
}

/// Records every choice point it is offered as "kind@t_ns:cand,...->choice"
/// and steers round-robin (the k-th point takes candidate k % count).
class RecordingController final : public sim::ScheduleController {
public:
    std::size_t choose(const sim::SchedulePoint& pt) override {
        const std::size_t choice = seen.size() % pt.candidates.size();
        std::string s = std::string(sim::to_string(pt.kind)) + '@' +
                        std::to_string(pt.now.ns()) + ':';
        for (std::size_t i = 0; i < pt.candidates.size(); ++i) {
            s += (i == 0 ? "" : ",") + pt.candidates[i];
        }
        seen.push_back(s + "->" + std::to_string(choice));
        return choice;
    }
    std::vector<std::string> seen;
};

}  // namespace

// ---- Schedule (de)serialization ----

TEST(Schedule, RoundTripsThroughString) {
    explore::Schedule s;
    s.choices = {0, 0, 2, 0, 1};
    EXPECT_EQ(s.to_string(), "5|2:2,4:1");
    EXPECT_EQ(s.divergences(), 2u);
    const auto back = explore::Schedule::parse(s.to_string());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
}

TEST(Schedule, AllDefaultIsJustLength) {
    explore::Schedule s;
    s.choices = {0, 0, 0};
    EXPECT_EQ(s.to_string(), "3|");
    const auto back = explore::Schedule::parse("3|");
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
}

TEST(Schedule, ParseRejectsMalformedInput) {
    EXPECT_FALSE(explore::Schedule::parse("").has_value());
    EXPECT_FALSE(explore::Schedule::parse("nope").has_value());
    EXPECT_FALSE(explore::Schedule::parse("3|9:1").has_value());  // index >= len
    EXPECT_FALSE(explore::Schedule::parse("3|1:0").has_value());  // default entry
    EXPECT_FALSE(explore::Schedule::parse("3|1").has_value());    // no colon
}

TEST(Schedule, ParseReportsWhatIsWrong) {
    const auto err_for = [](const std::string& s) {
        std::string err;
        EXPECT_FALSE(explore::Schedule::parse(s, &err).has_value()) << s;
        EXPECT_FALSE(err.empty()) << s;
        return err;
    };
    EXPECT_NE(err_for("nope").find("missing '|'"), std::string::npos);
    EXPECT_NE(err_for("abc|").find("not a number"), std::string::npos);
    EXPECT_NE(err_for("3|1").find("no ':'"), std::string::npos);
    EXPECT_NE(err_for("3|x:1").find("index"), std::string::npos);
    EXPECT_NE(err_for("3|1:y").find("choice"), std::string::npos);
    EXPECT_NE(err_for("3|9:1").find("past the declared length"), std::string::npos);
    EXPECT_NE(err_for("3|1:0").find("redundant"), std::string::npos);
}

// ---- serialized-trace replay: negative paths ----

TEST(Explorer, ReplayTraceRejectsMalformedInput) {
    explore::Explorer ex{[](explore::Run& r) { build_three_tasks(r); }};
    const auto out = ex.replay_trace("not-a-trace");
    EXPECT_FALSE(out.ok());
    EXPECT_FALSE(out.result.has_value());  // malformed input: nothing was run
    EXPECT_NE(out.error.find("malformed decision trace"), std::string::npos)
        << out.error;
}

TEST(Explorer, ReplayTraceRejectsTruncatedInput) {
    explore::Explorer ex{[](explore::Run& r) { build_three_tasks(r); }};
    const auto out = ex.replay_trace("4|2:");  // cut off mid-entry
    EXPECT_FALSE(out.ok());
    EXPECT_FALSE(out.result.has_value());
    EXPECT_NE(out.error.find("malformed decision trace"), std::string::npos)
        << out.error;
}

TEST(Explorer, ReplayTraceReportsOutOfRangeChoice) {
    // "4|1:7" parses, but no dispatch tie among three tasks ever has seven
    // candidates: the run degrades to the default at point 1 and says so.
    explore::Explorer ex{[](explore::Run& r) { build_three_tasks(r); }};
    const auto out = ex.replay_trace("4|1:7");
    EXPECT_FALSE(out.ok());
    ASSERT_TRUE(out.result.has_value());  // the run still happened...
    EXPECT_TRUE(out.result->diverged);    // ...but not on the planned path
    EXPECT_NE(out.error.find("point 1"), std::string::npos) << out.error;
    EXPECT_NE(out.error.find("out of range"), std::string::npos) << out.error;
}

TEST(Explorer, ReplayTraceRoundTripsCleanly) {
    explore::Explorer ex{[](explore::Run& r) { build_three_tasks(r); }};
    auto base = ex.replay(explore::Schedule{});
    const auto out = ex.replay_trace(base.schedule.to_string());
    ASSERT_TRUE(out.ok()) << out.error;
    EXPECT_FALSE(out.result->diverged);
    EXPECT_EQ(csv_of(out.result->trace), csv_of(base.trace));
}

// ---- deadlock discovery ----

TEST(Explorer, FindsCrossAcquisitionDeadlock) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    explore::Explorer ex{[](explore::Run& r) { build_crossed(r, false); }, cfg};
    const auto res = ex.explore();

    ASSERT_FALSE(res.violations.empty());
    const explore::Violation& v = res.violations.front();
    EXPECT_EQ(v.kind, explore::Violation::Kind::Deadlock);
    // The report names the cycle through the watched mutexes.
    EXPECT_NE(v.detail.find("cyclic mutex wait"), std::string::npos) << v.detail;
    EXPECT_NE(v.detail.find("m1"), std::string::npos) << v.detail;
    EXPECT_NE(v.detail.find("m2"), std::string::npos) << v.detail;
    // One divergence from the default schedule suffices.
    EXPECT_EQ(v.schedule.divergences(), 1u);
    // The default path (explored first) is clean: more than one path ran.
    EXPECT_GT(res.stats.paths, 1u);
    ASSERT_TRUE(res.first_failure.has_value());
    EXPECT_GT(res.first_failure->trace.size(), 0u);
}

TEST(Explorer, DefaultScheduleNeverDeadlocks) {
    // preemption_bound 0 pins every run to the deterministic schedule.
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 0;
    explore::Explorer ex{[](explore::Run& r) { build_crossed(r, false); }, cfg};
    const auto res = ex.explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_TRUE(res.exhausted);
    EXPECT_EQ(res.stats.paths, 1u);
}

TEST(Explorer, LockOrderFixExploresClean) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 2;
    explore::Explorer ex{[](explore::Run& r) { build_crossed(r, true); }, cfg};
    const auto res = ex.explore();
    EXPECT_TRUE(res.violations.empty());
    EXPECT_TRUE(res.exhausted);
}

TEST(Explorer, RandomWalksFindTheSameDeadlock) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    cfg.seed = 7;
    explore::Explorer ex{[](explore::Run& r) { build_crossed(r, false); }, cfg};
    const auto res = ex.random_walks(32);
    ASSERT_FALSE(res.violations.empty());
    EXPECT_EQ(res.violations.front().kind, explore::Violation::Kind::Deadlock);
}

TEST(Explorer, DeadlockTextIndependentOfHeapLayout) {
    // The cycle text must not follow Task addresses: junk allocations shift
    // where each build's tasks land, and the replayed first failure is built
    // on a different heap than the explored path it reproduces.
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 0;
    explore::Explorer ex{[](explore::Run& r) { build_ring(r, 20); }, cfg};
    std::vector<std::unique_ptr<char[]>> junk;
    std::string expected;
    for (int layout = 0; layout < 16; ++layout) {
        for (int j = 0; j < 3 * layout; ++j) {
            junk.emplace_back(new char[16 + (j * 97 + layout * 31) % 700]);
        }
        const auto res = ex.explore();
        ASSERT_FALSE(res.violations.empty());
        ASSERT_TRUE(res.first_failure.has_value());
        const std::string& text = res.violations.front().detail;
        if (expected.empty()) {
            expected = text;
        }
        EXPECT_EQ(text, expected) << "layout " << layout;
        EXPECT_EQ(res.first_failure->violations.front().detail, text);
    }
    EXPECT_EQ(expected.rfind("cyclic mutex wait: t18 -> m19 (held by t19) -> ", 0), 0u)
        << expected;
}

// ---- determinism and replay ----

TEST(Explorer, SamePriorityTieBreakIsDeterministic) {
    // Two uncontrolled runs of the same build produce byte-for-byte equal
    // traces: the FIFO tie-break is stable, which is what makes the all-zero
    // schedule (and therefore every decision trace) replayable.
    auto run_once = [] {
        explore::Run run{sim::KernelConfig{}};
        build_three_tasks(run);
        run.kernel().run();
        return csv_of(run.trace());
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Explorer, ReplayReproducesTraceByteForByte) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    explore::Explorer ex{[](explore::Run& r) { build_crossed(r, false); }, cfg};
    const auto res = ex.explore();
    ASSERT_TRUE(res.first_failure.has_value());

    const auto replayed = ex.replay(res.first_failure->schedule);
    ASSERT_FALSE(replayed.violations.empty());
    EXPECT_EQ(replayed.violations.front().kind,
              res.first_failure->violations.front().kind);
    EXPECT_EQ(replayed.schedule, res.first_failure->schedule);
    EXPECT_EQ(csv_of(replayed.trace), csv_of(res.first_failure->trace));
}

TEST(Explorer, FirstFailureIsTheReplayOfItsSchedule) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    cfg.seed = 7;
    explore::Explorer ex{[](explore::Run& r) { build_crossed(r, false); }, cfg};
    expect_first_failure_is_replay(ex, ex.explore());
    expect_first_failure_is_replay(ex, ex.random_walks(32));
}

TEST(Explorer, ExpandRecordsNoMarkersReplayOnePerDecision) {
    explore::Explorer ex{[](explore::Run& r) { build_three_tasks(r, false); }};
    const explore::Explorer::Expansion e = ex.expand({1});
    ASSERT_FALSE(e.decisions.empty());
    EXPECT_EQ(e.path.trace.size(), 0u);
    const explore::PathResult replayed = ex.replay(e.path.schedule);
    EXPECT_EQ(replayed.trace.size(), e.decisions.size());
    EXPECT_EQ(replayed.trace.count(trace::RecordKind::Marker), e.decisions.size());
}

TEST(Explorer, ChoicePointsOfferedMatchGolden) {
    // What the kernel (delta_order) and the RTOS (task_dispatch) offer a
    // controller, and how each applies a non-default answer, pinned
    // point by point.
    RecordingController rec;
    explore::Run run{sim::KernelConfig{}};
    run.kernel().set_schedule_controller(&rec);
    build_three_tasks(run);
    run.kernel().run();
    const std::vector<std::string> golden = {
        "delta_order@0:t0,t1,t2->0",    "delta_order@0:t1,t2->1",
        "delta_order@0:t0,t2,t1->2",    "task_dispatch@0:t0,t2,t1->0",
        "delta_order@0:t0,t2->0",       "task_dispatch@1000000:t2,t1->1",
    };
    EXPECT_EQ(rec.seen, golden);
}

TEST(Explorer, ReplayFromParsedStringMatches) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    explore::Explorer ex{[](explore::Run& r) { build_crossed(r, false); }, cfg};
    const auto res = ex.explore();
    ASSERT_FALSE(res.violations.empty());

    const auto parsed =
        explore::Schedule::parse(res.violations.front().schedule.to_string());
    ASSERT_TRUE(parsed.has_value());
    const auto replayed = ex.replay(*parsed);
    ASSERT_FALSE(replayed.violations.empty());
    EXPECT_EQ(replayed.violations.front().kind, explore::Violation::Kind::Deadlock);
}

// ---- exhaustive coverage ----

TEST(Explorer, ExhaustsThreeTaskSpaceWithoutPruning) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 16;  // larger than any path's choice count
    explore::Explorer ex{[](explore::Run& r) { build_three_tasks(r); }, cfg};
    const auto res = ex.explore();
    EXPECT_TRUE(res.exhausted);
    EXPECT_EQ(res.stats.pruned, 0u);
    EXPECT_EQ(res.stats.truncated, 0u);
    EXPECT_TRUE(res.violations.empty());
    // More than one interleaving exists and all were visited.
    EXPECT_GT(res.stats.paths, 1u);
    EXPECT_GT(res.stats.choice_points, 0u);
}

TEST(Explorer, BoundZeroVisitsExactlyTheDefaultPath) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 0;
    explore::Explorer ex{[](explore::Run& r) { build_three_tasks(r); }, cfg};
    const auto res = ex.explore();
    EXPECT_EQ(res.stats.paths, 1u);
    EXPECT_TRUE(res.exhausted);
    EXPECT_GT(res.stats.pruned, 0u);  // the skipped alternatives are counted
}

// ---- other safety properties ----

TEST(Explorer, ReportsLostSignalsWhenOptedIn) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 0;
    cfg.check_lost_signals = true;
    explore::Explorer ex{[](explore::Run& r) {
        auto& os = r.make<rtos::RtosModel>(r.kernel(), rtos::RtosConfig{});
        os.init();
        rtos::OsEvent* evt = os.event_new("go");
        rtos::Task* t = os.task_create("t", rtos::TaskType::Aperiodic, {}, {}, 1);
        r.kernel().spawn("t", [&os, evt, t] {
            os.task_activate(t);
            os.event_notify(evt);  // nobody is waiting: the signal is lost
            os.task_terminate();
        });
        os.start();
    }, cfg};
    const auto res = ex.explore();
    ASSERT_FALSE(res.violations.empty());
    EXPECT_EQ(res.violations.front().kind, explore::Violation::Kind::LostSignal);
}

TEST(Explorer, ReportsExpectPredicateFailures) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 0;
    explore::Explorer ex{[](explore::Run& r) {
        build_three_tasks(r);
        r.expect("always-false", [] { return false; });
    }, cfg};
    const auto res = ex.explore();
    ASSERT_FALSE(res.violations.empty());
    EXPECT_EQ(res.violations.front().kind,
              explore::Violation::Kind::PropertyFailure);
    EXPECT_EQ(res.violations.front().detail, "always-false");
}

TEST(Explorer, AssertionFailuresBecomeViolationsNotAborts) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 0;
    explore::Explorer ex{[](explore::Run& r) {
        auto& os = r.make<rtos::RtosModel>(r.kernel(), rtos::RtosConfig{});
        os.init();
        auto& m = r.make<rtos::OsMutex>(os, rtos::OsMutex::Protocol::None, "m");
        rtos::Task* t = os.task_create("t", rtos::TaskType::Aperiodic, {}, {}, 1);
        r.kernel().spawn("t", [&os, &m, t] {
            os.task_activate(t);
            m.lock();
            m.lock();  // SLM_ASSERT: OsMutex is not recursive
            os.task_terminate();
        });
        os.start();
    }, cfg};
    const auto res = ex.explore();
    ASSERT_FALSE(res.violations.empty());
    EXPECT_EQ(res.violations.front().kind,
              explore::Violation::Kind::AssertionFailure);
    EXPECT_NE(res.violations.front().detail.find("not recursive"),
              std::string::npos);
}

TEST(Explorer, DeadlineMissesSurfaceUnderHorizon) {
    // One periodic task whose execution exceeds its period: every cycle
    // completes late. Bound the run with a hyperperiod-derived horizon.
    std::vector<analysis::PeriodicTaskSpec> specs{{"late", 1_ms, 2_ms, {}, 0}};
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 0;
    cfg.check_deadline_misses = true;
    cfg.check_deadlock = false;  // the task never terminates; that's fine here
    cfg.horizon = analysis::hyperperiod(specs) * 4;
    explore::Explorer ex{[](explore::Run& r) {
        auto& os = r.make<rtos::RtosModel>(r.kernel(), rtos::RtosConfig{});
        os.init();
        rtos::Task* t =
            os.task_create("late", rtos::TaskType::Periodic, 1_ms, 2_ms, 0);
        r.kernel().spawn("late", [&os, t] {
            os.task_activate(t);
            for (;;) {
                os.time_wait(2_ms);  // overruns the 1 ms period
                os.task_endcycle();
            }
        });
        os.start();
    }, cfg};
    const auto res = ex.explore();
    ASSERT_FALSE(res.violations.empty());
    EXPECT_EQ(res.violations.front().kind, explore::Violation::Kind::DeadlineMiss);
    EXPECT_NE(res.violations.front().detail.find("late"), std::string::npos);
}

// ---- analysis::hyperperiod ----

TEST(Hyperperiod, LcmOfPeriods) {
    std::vector<analysis::PeriodicTaskSpec> specs{
        {"a", 4_ms, 1_ms, {}, 0},
        {"b", 6_ms, 1_ms, {}, 1},
        {"c", 10_ms, 1_ms, {}, 2},
    };
    EXPECT_EQ(analysis::hyperperiod(specs), 60_ms);
}

TEST(Hyperperiod, EmptyAndAperiodicEntries) {
    EXPECT_EQ(analysis::hyperperiod({}), SimTime::zero());
    std::vector<analysis::PeriodicTaskSpec> specs{
        {"periodic", 3_ms, 1_ms, {}, 0},
        {"aperiodic", SimTime::zero(), 1_ms, {}, 1},
    };
    EXPECT_EQ(analysis::hyperperiod(specs), 3_ms);
}

TEST(Hyperperiod, SaturatesOnOverflow) {
    std::vector<analysis::PeriodicTaskSpec> specs{
        {"a", nanoseconds((1LL << 62) - 1), 1_ms, {}, 0},
        {"b", nanoseconds((1LL << 61) - 1), 1_ms, {}, 1},
    };
    EXPECT_EQ(analysis::hyperperiod(specs), SimTime::max());
}
