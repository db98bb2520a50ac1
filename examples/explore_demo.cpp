// Schedule-space exploration demo: the default deterministic schedule hides a
// cross-acquisition deadlock between two equal-priority tasks that wake from
// task_delay() at the same instant. Bounded DFS over the kernel's tie-break
// choice points finds it within one divergence, replays it from the recorded
// decision trace, and proves the lock-order fix clean by exhausting the
// schedule space. See docs/schedule-exploration.md.
//
// Usage: explore_demo [--jobs N] [--dump FILE] [--replay TRACE]
//
//   --jobs N      run the explorations on the N-worker parallel engine
//                 (slm::parallel) instead of the serial one; results are
//                 byte-identical either way (docs/parallel-exploration.md)
//   --dump FILE   write the canonical result JSON of every exploration to
//                 FILE, one line each — the artifact ci/check_parallel.sh
//                 byte-compares across thread counts
//   --replay T    re-run one serialized decision trace ("len|i:c,...") on the
//                 crossed-lock model and report its outcome; malformed or
//                 ill-fitting traces get a structured "line N:" diagnostic in
//                 the same shape as fault-plan parse errors

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "explore/explore.hpp"
#include "parallel/parallel.hpp"
#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"

using namespace slm;
using namespace slm::time_literals;

namespace {

// Two tasks, two mutexes. `ctrl` sleeps while holding m1 (the seeded hazard),
// `comms` wakes at the same instant. With crossed acquisition order the
// schedule where comms runs first after the simultaneous wakeup deadlocks;
// the default FIFO schedule (ctrl's timer was armed first) never hits it.
void build_crossed(explore::Run& run, bool fixed_lock_order) {
    rtos::RtosConfig cfg;
    cfg.cpu_name = "CPU0";
    auto& os = run.make<rtos::RtosModel>(run.kernel(), cfg);
    run.make<trace::RtosTraceAdapter>(os, run.trace());
    os.init();
    auto& m1 = run.make<rtos::OsMutex>(os, rtos::OsMutex::Protocol::None, "m1");
    auto& m2 = run.make<rtos::OsMutex>(os, rtos::OsMutex::Protocol::None, "m2");

    rtos::Task* ctrl = os.task_create("ctrl", rtos::TaskType::Aperiodic, {}, {}, 1);
    rtos::Task* comms = os.task_create("comms", rtos::TaskType::Aperiodic, {}, {}, 1);

    run.kernel().spawn("ctrl", [&os, &m1, &m2, ctrl] {
        os.task_activate(ctrl);
        m1.lock();
        os.task_delay(1_ms);  // hold m1 across a sleep
        m2.lock();
        os.time_wait(100_us);
        m2.unlock();
        m1.unlock();
        os.task_terminate();
    });
    run.kernel().spawn("comms", [&os, &m1, &m2, comms, fixed_lock_order] {
        os.task_activate(comms);
        os.task_delay(1_ms);  // wakes in the same instant as ctrl
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

// Three equal-priority tasks with nothing but computation: a small space the
// explorer can cover completely.
void build_three_tasks(explore::Run& run) {
    rtos::RtosConfig cfg;
    cfg.cpu_name = "CPU0";
    auto& os = run.make<rtos::RtosModel>(run.kernel(), cfg);
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

void print_result(const char* label, const explore::ExploreResult& res) {
    std::printf("%-22s paths=%llu  choice_points=%llu  pruned=%llu  "
                "max_depth=%llu  exhausted=%s  violations=%zu\n",
                label, static_cast<unsigned long long>(res.stats.paths),
                static_cast<unsigned long long>(res.stats.choice_points),
                static_cast<unsigned long long>(res.stats.pruned),
                static_cast<unsigned long long>(res.stats.max_depth),
                res.exhausted ? "yes" : "no", res.violations.size());
}

}  // namespace

int main(int argc, char** argv) {
    unsigned jobs = 0;  // 0 = the serial engine
    std::string dump_path;
    std::string replay_arg;
    bool do_replay = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobs = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (std::strcmp(argv[i], "--dump") == 0 && i + 1 < argc) {
            dump_path = argv[++i];
        } else if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
            replay_arg = argv[++i];
            do_replay = true;
        } else {
            std::fprintf(stderr, "usage: explore_demo [--jobs N] [--dump FILE] "
                                 "[--replay TRACE]\n");
            return 2;
        }
    }

    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;  // one divergence from the default schedule
    const explore::Explorer::BuildFn crossed_build = [](explore::Run& r) {
        build_crossed(r, /*fixed_lock_order=*/false);
    };

    // ---- 0. --replay: re-run one decision trace with full diagnostics -----
    if (do_replay) {
        explore::Explorer ex{crossed_build, cfg};
        const explore::Explorer::ReplayOutcome out = ex.replay_trace(replay_arg);
        if (!out.error.empty()) {
            // Same "line N: what went wrong" shape as fault::FaultPlan::parse
            // diagnostics, so scripted pipelines parse both with one pattern
            // (the trace argument is its own line 1).
            std::fprintf(stderr, "explore_demo: --replay: line 1: %s\n",
                         out.error.c_str());
            return out.result.has_value() ? 1 : 2;
        }
        const explore::PathResult& pr = *out.result;
        std::printf("replayed \"%s\": %zu violation(s), ended at %s\n",
                    pr.schedule.to_string().c_str(), pr.violations.size(),
                    pr.end_time.to_string().c_str());
        for (const explore::Violation& v : pr.violations) {
            std::printf("  %s: %s\n", to_string(v.kind), v.detail.c_str());
        }
        return 0;
    }

    // Run every exploration on the chosen engine; the results (and the
    // canonical JSON below) are byte-identical regardless of `jobs`.
    const auto run = [jobs](const explore::Explorer::BuildFn& build,
                            const explore::ExploreConfig& c) {
        if (jobs == 0) {
            return explore::Explorer{build, c}.explore();
        }
        parallel::ParallelConfig pc;
        pc.jobs = jobs;
        return parallel::explore(build, c, pc);
    };

    // ---- 1. Bounded DFS finds the seeded deadlock -------------------------
    explore::Explorer crossed{crossed_build, cfg};
    const auto res = run(crossed_build, cfg);
    print_result("crossed lock order:", res);
    if (res.violations.empty()) {
        std::printf("FAIL: expected a deadlock within the preemption bound\n");
        return 1;
    }
    const explore::Violation& v = res.violations.front();
    std::printf("  %s at %s on schedule \"%s\"\n    %s\n", to_string(v.kind),
                v.time.to_string().c_str(), v.schedule.to_string().c_str(),
                v.detail.c_str());

    // ---- 2. Replay the failing schedule from its decision trace -----------
    const auto replayed = crossed.replay(v.schedule);
    if (replayed.violations.empty()) {
        std::printf("FAIL: replay did not reproduce the deadlock\n");
        return 1;
    }
    std::printf("\nreplayed \"%s\" -> %s again; Gantt of the failing run:\n",
                v.schedule.to_string().c_str(),
                to_string(replayed.violations.front().kind));
    if (replayed.end_time > SimTime::zero()) {
        std::printf("%s\n", replayed.trace
                                .render_gantt(SimTime::zero(), replayed.end_time, 56)
                                .c_str());
    }

    // ---- 3. The lock-order fix survives the same exploration --------------
    const auto res_fixed = run(
        [](explore::Run& r) { build_crossed(r, /*fixed_lock_order=*/true); }, cfg);
    print_result("consistent order:", res_fixed);
    if (!res_fixed.violations.empty() || !res_fixed.exhausted) {
        std::printf("FAIL: lock-order fix should explore clean and exhaust\n");
        return 1;
    }

    // ---- 4. Exhaustive mode: full coverage of a 3-task space --------------
    explore::ExploreConfig all;
    all.preemption_bound = 16;  // larger than any path's choice count
    const auto res_three = run([](explore::Run& r) { build_three_tasks(r); }, all);
    print_result("3 tasks, exhaustive:", res_three);
    if (!res_three.exhausted || res_three.stats.pruned != 0 ||
        res_three.stats.truncated != 0) {
        std::printf("FAIL: expected full path coverage\n");
        return 1;
    }
    std::printf("  full coverage: every interleaving of the 3-task space "
                "visited (%llu paths, nothing pruned)\n",
                static_cast<unsigned long long>(res_three.stats.paths));

    if (!dump_path.empty()) {
        std::ofstream f{dump_path, std::ios::binary};
        explore::write_result_json(f, res);
        explore::write_result_json(f, res_fixed);
        explore::write_result_json(f, res_three);
        if (!f) {
            std::fprintf(stderr, "explore_demo: cannot write %s\n",
                         dump_path.c_str());
            return 2;
        }
    }
    return 0;
}
