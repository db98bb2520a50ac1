// Parallel-engine benchmarks: serial explore/campaign vs. the slm::parallel
// work-stealing pool (cold) vs. a warm ResultCache re-run, emitting a
// machine-readable BENCH_parallel.json (schema slm-bench-parallel-v1).
//
// Three gates, reflected in the "gates" block of the JSON and the exit code:
//   equivalence       HARD: serial, cold-parallel, and warm-parallel runs
//                     must serialize byte-identically (the same contract
//                     ci/check_parallel.sh enforces on the examples).
//   cold_speedup_6x   cold-parallel explore >= 6x serial. Only meaningful
//                     with real cores to spread across, so it is SKIPped
//                     (not failed) when fewer than 8 hardware threads are
//                     detected — single-core CI boxes still run everything
//                     and still enforce the other two gates.
//   warm_speedup_20x  warm-cache explore >= 20x serial, full mode only
//                     (smoke workloads are too small to amortize the fixed
//                     pool startup cost, so smoke reports the number
//                     without gating on it). A warm run takes well under a
//                     millisecond, so the gate reads median(serial) /
//                     median(warm) over kTimedRuns runs of each, not one
//                     timing of each.
//
// Usage: bench_parallel [--smoke] [--out FILE]
//   --smoke   tiny workloads for CI (milliseconds)
//   --out     output path (default: BENCH_parallel.json in the CWD)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "explore/explore.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "parallel/cache.hpp"
#include "parallel/parallel.hpp"
#include "rtos/rtos.hpp"
#include "trace/trace.hpp"

using namespace slm;
using namespace slm::time_literals;

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/// Runs per median-timed configuration (serial and warm explore).
constexpr int kTimedRuns = 7;

/// Median wall time of kTimedRuns calls of `run`. Every call's JSON must equal
/// `expect`; `identical` is cleared otherwise.
template <typename Fn>
double median_ms(const std::string& expect, bool& identical, Fn&& run) {
    std::vector<double> ms;
    for (int i = 0; i < kTimedRuns; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::string json = run();
        ms.push_back(elapsed_ms(t0));
        identical = identical && json == expect;
    }
    std::nth_element(ms.begin(), ms.begin() + kTimedRuns / 2, ms.end());
    return ms[kTimedRuns / 2];
}

/// Equal-priority task set with simultaneous wakeups: every task sleeps to
/// the same instant and then computes in short slices, so the scheduler hits
/// a tie-break choice point per slice and the bounded DFS has a real tree to
/// shard. `tasks`/`slices` scale the space; the per-path simulation cost is
/// what the pool parallelizes.
explore::Explorer::BuildFn make_bench_build(unsigned tasks, unsigned slices) {
    return [tasks, slices](explore::Run& run) {
        rtos::RtosConfig cfg;
        cfg.cpu_name = "CPU0";
        auto& os = run.make<rtos::RtosModel>(run.kernel(), cfg);
        os.init();
        for (unsigned i = 0; i < tasks; ++i) {
            const std::string name = "t" + std::to_string(i);
            rtos::Task* t =
                os.task_create(name, rtos::TaskType::Aperiodic, {}, {}, 1);
            run.kernel().spawn(name, [&os, t, slices] {
                os.task_activate(t);
                os.task_delay(1_ms);  // everyone wakes at the same instant
                for (unsigned s = 0; s < slices; ++s) {
                    os.time_wait(50_us);
                }
                os.task_terminate();
            });
        }
        os.start();
    };
}

std::string result_json(const explore::ExploreResult& res) {
    std::ostringstream os;
    explore::write_result_json(os, res);
    return std::move(os).str();
}

std::string campaign_json(const fault::CampaignResult& res) {
    std::ostringstream os;
    fault::write_campaign_json(os, res);
    return std::move(os).str();
}

/// One traced run of a small jittered task set — the campaign workload.
fault::CampaignRun run_campaign_model(fault::FaultInjector& inj,
                                      unsigned slices) {
    sim::Kernel k;
    trace::TraceRecorder rec;
    rtos::RtosConfig rc;
    rc.cpu_name = "CPU0";
    rtos::RtosModel os(k, rc);
    trace::RtosTraceAdapter tracer{os, rec};
    os.init();
    inj.attach(os);
    for (const char* name : {"sense", "plan", "act"}) {
        rtos::Task* t =
            os.task_create(name, rtos::TaskType::Aperiodic, {}, {}, 1);
        k.spawn(name, [&os, t, slices] {
            os.task_activate(t);
            for (unsigned s = 0; s < slices; ++s) {
                os.time_wait(100_us);
            }
            os.task_terminate();
        });
    }
    os.start();
    k.run();
    fault::CampaignRun out;
    std::ostringstream csv;
    rec.write_csv(csv);
    out.trace_csv = std::move(csv).str();
    out.end_time = k.now();
    return out;
}

struct GateState {
    bool failed = false;

    /// PASS / FAIL with a hard exit-code consequence.
    const char* hard(bool ok) {
        if (!ok) {
            failed = true;
        }
        return ok ? "PASS" : "FAIL";
    }
};

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path = "BENCH_parallel.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: bench_parallel [--smoke] [--out FILE]\n");
            return 2;
        }
    }

    const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
    const unsigned jobs = cores;

    // ---- exploration ------------------------------------------------------
    const unsigned tasks = smoke ? 3 : 4;
    const unsigned slices = smoke ? 3 : 6;
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 2;
    cfg.max_paths = smoke ? 2'000 : 20'000;
    const explore::Explorer::BuildFn build = make_bench_build(tasks, slices);

    std::fprintf(stderr, "bench_parallel: explore serial (%d runs)...\n", kTimedRuns);
    const auto run_serial = [&] {
        return result_json(explore::Explorer{build, cfg}.explore());
    };
    const std::string serial = run_serial();
    bool explore_identical = true;
    const double serial_ms = median_ms(serial, explore_identical, run_serial);

    std::fprintf(stderr, "bench_parallel: explore parallel cold (%u jobs)...\n",
                 jobs);
    parallel::ResultCache cache;
    parallel::ParallelConfig pc;
    pc.jobs = jobs;
    pc.cache = &cache;
    pc.model_fingerprint = "bench-explore-v1";
    parallel::ParallelStats cold;
    auto t0 = std::chrono::steady_clock::now();
    const std::string cold_json = result_json(parallel::explore(build, cfg, pc, &cold));
    const double cold_ms = elapsed_ms(t0);
    explore_identical = explore_identical && cold_json == serial;

    std::fprintf(stderr, "bench_parallel: explore parallel warm (cached, %d runs)...\n",
                 kTimedRuns);
    parallel::ParallelStats warm;
    const double warm_ms = median_ms(serial, explore_identical, [&] {
        return result_json(parallel::explore(build, cfg, pc, &warm));
    });

    const double cold_speedup = serial_ms / cold_ms;
    const double warm_speedup = serial_ms / warm_ms;

    // ---- campaign ---------------------------------------------------------
    const unsigned sweep_runs = smoke ? 16 : 200;
    const unsigned camp_slices = smoke ? 10 : 200;
    const fault::FaultPlan plan =
        *fault::FaultPlan::parse("exec_jitter sense max=20us p=0.5\n"
                                 "exec_jitter plan max=20us p=0.5\n");
    const fault::CampaignRunFn fn = [camp_slices](fault::FaultInjector& inj,
                                                  fault::CampaignRun& out) {
        out = run_campaign_model(inj, camp_slices);
    };
    const fault::CampaignConfig cc{1, sweep_runs};

    std::fprintf(stderr, "bench_parallel: campaign serial (%u seeds)...\n",
                 sweep_runs);
    t0 = std::chrono::steady_clock::now();
    const std::string camp_serial = campaign_json(fault::run_campaign(plan, cc, fn));
    const double camp_serial_ms = elapsed_ms(t0);

    std::fprintf(stderr, "bench_parallel: campaign parallel cold...\n");
    parallel::ParallelConfig cpc;
    cpc.jobs = jobs;
    cpc.cache = &cache;
    cpc.model_fingerprint = "bench-campaign-v1";
    parallel::ParallelStats camp_cold;
    t0 = std::chrono::steady_clock::now();
    const std::string camp_cold_json =
        campaign_json(parallel::run_campaign(plan, cc, fn, cpc, &camp_cold));
    const double camp_cold_ms = elapsed_ms(t0);

    std::fprintf(stderr, "bench_parallel: campaign parallel warm...\n");
    t0 = std::chrono::steady_clock::now();
    const std::string camp_warm_json =
        campaign_json(parallel::run_campaign(plan, cc, fn, cpc, nullptr));
    const double camp_warm_ms = elapsed_ms(t0);

    const double camp_cold_speedup = camp_serial_ms / camp_cold_ms;
    const double camp_warm_speedup = camp_serial_ms / camp_warm_ms;
    const bool camp_identical =
        camp_cold_json == camp_serial && camp_warm_json == camp_serial;

    // ---- gates ------------------------------------------------------------
    GateState gates;
    const char* g_equiv = gates.hard(explore_identical && camp_identical);
    char g_cold[64];
    if (cores < 8) {
        std::snprintf(g_cold, sizeof(g_cold), "SKIP (%u cores < 8)", cores);
    } else {
        std::snprintf(g_cold, sizeof(g_cold), "%s",
                      gates.hard(cold_speedup >= 6.0));
    }
    char g_warm[64];
    if (smoke) {
        std::snprintf(g_warm, sizeof(g_warm), "SKIP (smoke)");
    } else {
        std::snprintf(g_warm, sizeof(g_warm), "%s",
                      gates.hard(warm_speedup >= 20.0));
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::perror("bench_parallel: fopen");
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"slm-bench-parallel-v1\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"cores_detected\": %u,\n  \"jobs\": %u,\n", cores, jobs);
    std::fprintf(f,
                 "  \"explore\": {\n"
                 "    \"paths\": %llu,\n"
                 "    \"serial_ms\": %.2f,\n"
                 "    \"parallel_cold_ms\": %.2f,\n"
                 "    \"parallel_warm_ms\": %.2f,\n"
                 "    \"speedup_cold\": %.2f,\n"
                 "    \"speedup_warm\": %.2f,\n"
                 "    \"byte_identical\": %s,\n"
                 "    \"utilization_cold\": %.3f,\n"
                 "    \"tasks_stolen\": %llu,\n"
                 "    \"warm_cache_hits\": %llu\n"
                 "  },\n",
                 static_cast<unsigned long long>(cold.tasks_executed), serial_ms,
                 cold_ms, warm_ms, cold_speedup, warm_speedup,
                 explore_identical ? "true" : "false", cold.utilization(),
                 static_cast<unsigned long long>(cold.tasks_stolen),
                 static_cast<unsigned long long>(warm.cache_hits));
    std::fprintf(f,
                 "  \"campaign\": {\n"
                 "    \"seeds\": %u,\n"
                 "    \"serial_ms\": %.2f,\n"
                 "    \"parallel_cold_ms\": %.2f,\n"
                 "    \"parallel_warm_ms\": %.2f,\n"
                 "    \"speedup_cold\": %.2f,\n"
                 "    \"speedup_warm\": %.2f,\n"
                 "    \"byte_identical\": %s\n"
                 "  },\n",
                 sweep_runs, camp_serial_ms, camp_cold_ms, camp_warm_ms,
                 camp_cold_speedup, camp_warm_speedup,
                 camp_identical ? "true" : "false");
    std::fprintf(f,
                 "  \"gates\": {\n"
                 "    \"equivalence\": \"%s\",\n"
                 "    \"cold_speedup_6x\": \"%s\",\n"
                 "    \"warm_speedup_20x\": \"%s\"\n"
                 "  }\n}\n",
                 g_equiv, g_cold, g_warm);
    std::fclose(f);

    std::printf("explore : %6llu paths  serial %8.1f ms  cold %8.1f ms "
                "(%.1fx)  warm %8.1f ms (%.1fx)  %s\n",
                static_cast<unsigned long long>(cold.tasks_executed), serial_ms,
                cold_ms, cold_speedup, warm_ms, warm_speedup,
                explore_identical ? "byte-identical" : "DIVERGED");
    std::printf("campaign: %6u seeds  serial %8.1f ms  cold %8.1f ms "
                "(%.1fx)  warm %8.1f ms (%.1fx)  %s\n",
                sweep_runs, camp_serial_ms, camp_cold_ms, camp_cold_speedup,
                camp_warm_ms, camp_warm_speedup,
                camp_identical ? "byte-identical" : "DIVERGED");
    std::printf("gates   : equivalence=%s cold_speedup_6x=%s "
                "warm_speedup_20x=%s\n",
                g_equiv, g_cold, g_warm);
    std::printf("wrote %s\n", out_path.c_str());
    return gates.failed ? 1 : 0;
}
