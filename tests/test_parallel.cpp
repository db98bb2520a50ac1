// slm::parallel: the work-stealing deque, the determinism contract of the
// parallel exploration/campaign engines (byte-identical canonical JSON vs.
// the serial engines, at every thread count), and the result cache (warm
// re-runs hit; stale fingerprints and changed configs miss).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "explore/explore.hpp"
#include "fault/campaign.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "parallel/cache.hpp"
#include "parallel/deque.hpp"
#include "parallel/parallel.hpp"
#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"
#include "trace/trace.hpp"

using namespace slm;
using namespace slm::time_literals;

namespace {

std::string result_json(const explore::ExploreResult& res) {
    std::ostringstream os;
    explore::write_result_json(os, res);
    return std::move(os).str();
}

std::string csv_of(const trace::TraceRecorder& rec) {
    std::ostringstream os;
    rec.write_csv(os);
    return std::move(os).str();
}

std::string campaign_json(const fault::CampaignResult& res) {
    std::ostringstream os;
    fault::write_campaign_json(os, res);
    return std::move(os).str();
}

/// Two tasks, two mutexes, crossed acquisition order: deadlocks within one
/// divergence of the default schedule (same hazard as examples/explore_demo).
void build_crossed(explore::Run& run) {
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
        os.task_delay(1_ms);
        m2.lock();
        os.time_wait(100_us);
        m2.unlock();
        m1.unlock();
        os.task_terminate();
    });
    run.kernel().spawn("comms", [&os, &m1, &m2, comms] {
        os.task_activate(comms);
        os.task_delay(1_ms);
        m2.lock();
        m1.lock();
        os.time_wait(100_us);
        m1.unlock();
        m2.unlock();
        os.task_terminate();
    });
    os.start();
}

/// A small task set whose shape (task count, priorities, delays) is derived
/// from `seed` only, so every seed is a distinct deterministic model.
explore::Explorer::BuildFn seeded_build(std::uint64_t seed) {
    return [seed](explore::Run& run) {
        rtos::RtosConfig cfg;
        cfg.cpu_name = "CPU0";
        auto& os = run.make<rtos::RtosModel>(run.kernel(), cfg);
        os.init();
        const unsigned n = 2 + static_cast<unsigned>(seed % 3);
        for (unsigned i = 0; i < n; ++i) {
            const std::string name = "t" + std::to_string(i);
            const unsigned prio = 1 + static_cast<unsigned>((seed >> i) % 2);
            const SimTime delay = milliseconds(1 + (seed + i) % 2);
            const SimTime work = microseconds(100 * (i + 1));
            rtos::Task* t =
                os.task_create(name, rtos::TaskType::Aperiodic, {}, {}, prio);
            run.kernel().spawn(name, [&os, t, delay, work] {
                os.task_activate(t);
                os.task_delay(delay);
                os.time_wait(work);
                os.task_terminate();
            });
        }
        os.start();
    };
}

explore::ExploreResult parallel_explore(const explore::Explorer::BuildFn& build,
                                        const explore::ExploreConfig& cfg,
                                        unsigned jobs,
                                        parallel::ResultCache* cache = nullptr,
                                        const std::string& fingerprint = {},
                                        parallel::ParallelStats* stats = nullptr) {
    parallel::ParallelConfig pc;
    pc.jobs = jobs;
    pc.cache = cache;
    pc.model_fingerprint = fingerprint;
    return parallel::explore(build, cfg, pc, stats);
}

/// Minimal campaign runner: one jittered worker task, canonical CSV out.
fault::CampaignRun run_mini_model(fault::FaultInjector& inj) {
    sim::Kernel k;
    trace::TraceRecorder rec;
    rtos::RtosConfig rc;
    rc.cpu_name = "CPU0";
    rtos::RtosModel os(k, rc);
    trace::RtosTraceAdapter tracer{os, rec};
    os.init();
    inj.attach(os);
    rtos::Task* t = os.task_create("worker", rtos::TaskType::Aperiodic, {}, {}, 1);
    k.spawn("worker", [&os, t] {
        os.task_activate(t);
        for (int i = 0; i < 5; ++i) {
            os.time_wait(100_us);
        }
        os.task_terminate();
    });
    os.start();
    k.run();
    fault::CampaignRun out;
    std::ostringstream csv;
    rec.write_csv(csv);
    out.trace_csv = std::move(csv).str();
    out.end_time = k.now();
    return out;
}

const char* kMiniPlan = "exec_jitter worker max=50us p=0.5\n";

const fault::CampaignRunFn kMiniRunner = [](fault::FaultInjector& inj,
                                            fault::CampaignRun& out) {
    out = run_mini_model(inj);
};

}  // namespace

// ---- the work-stealing deque ----

TEST(ParallelDeque, OwnerLifoThiefFifo) {
    parallel::WorkDeque<int> d;
    d.push(1);
    d.push(2);
    d.push(3);
    int v = 0;
    ASSERT_TRUE(d.steal(v));
    EXPECT_EQ(v, 1);  // thieves take the oldest item
    ASSERT_TRUE(d.pop(v));
    EXPECT_EQ(v, 3);  // the owner takes the newest
    ASSERT_TRUE(d.pop(v));
    EXPECT_EQ(v, 2);
    EXPECT_FALSE(d.pop(v));
    EXPECT_FALSE(d.steal(v));
}

TEST(ParallelDeque, StealStressEveryItemExactlyOnce) {
    // One owner interleaving pushes and pops, three thieves stealing. Every
    // item must be consumed exactly once: the sum over all consumers equals
    // the sum pushed. Also exercises buffer growth (initial capacity 2).
    constexpr int kItems = 20000;
    parallel::WorkDeque<int> d(2);
    std::atomic<bool> done{false};
    std::atomic<std::int64_t> stolen_sum{0};
    std::atomic<std::int64_t> stolen_count{0};

    std::vector<std::thread> thieves;
    for (int t = 0; t < 3; ++t) {
        thieves.emplace_back([&] {
            int v = 0;
            while (!done.load()) {
                if (d.steal(v)) {
                    stolen_sum.fetch_add(v);
                    stolen_count.fetch_add(1);
                } else {
                    std::this_thread::yield();
                }
            }
            while (d.steal(v)) {  // drain the leftovers
                stolen_sum.fetch_add(v);
                stolen_count.fetch_add(1);
            }
        });
    }

    std::int64_t popped_sum = 0;
    std::int64_t popped_count = 0;
    int v = 0;
    for (int i = 1; i <= kItems; ++i) {
        d.push(i);
        if (i % 3 == 0 && d.pop(v)) {  // owner occasionally takes back work
            popped_sum += v;
            ++popped_count;
        }
    }
    while (d.pop(v)) {
        popped_sum += v;
        ++popped_count;
    }
    done.store(true);
    for (std::thread& th : thieves) {
        th.join();
    }

    const std::int64_t expected_sum =
        static_cast<std::int64_t>(kItems) * (kItems + 1) / 2;
    EXPECT_EQ(popped_count + stolen_count.load(), kItems);
    EXPECT_EQ(popped_sum + stolen_sum.load(), expected_sum);
}

// ---- exploration determinism ----

TEST(ParallelExplore, ByteIdenticalToSerialOnFailingModel) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    const std::string serial =
        result_json(explore::Explorer{build_crossed, cfg}.explore());
    EXPECT_NE(serial.find("deadlock"), std::string::npos);
    for (const unsigned jobs : {1U, 2U, 4U, 8U}) {
        const std::string par =
            result_json(parallel_explore(build_crossed, cfg, jobs));
        EXPECT_EQ(par, serial) << "jobs=" << jobs;
    }
}

TEST(ParallelExplore, ByteIdenticalToSerialAcrossSeedsAndThreadCounts) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        const explore::Explorer::BuildFn build = seeded_build(seed);
        const std::string serial =
            result_json(explore::Explorer{build, cfg}.explore());
        for (const unsigned jobs : {1U, 2U, 4U, 8U}) {
            const std::string par = result_json(parallel_explore(build, cfg, jobs));
            EXPECT_EQ(par, serial) << "seed=" << seed << " jobs=" << jobs;
        }
    }
}

TEST(ParallelExplore, ViolationListMatchesSerialUnderViolationCap) {
    // Serial stops enumerating once the cap fills; the parallel engine keeps
    // going and truncates at merge. Because serial enumerates in
    // lexicographic order, both end up with the lex-first cap entries — the
    // stats legitimately differ, the violation list must not.
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    cfg.max_violations = 2;
    const auto serial = explore::Explorer{build_crossed, cfg}.explore();
    ASSERT_EQ(serial.violations.size(), 2U);
    const auto par = parallel_explore(build_crossed, cfg, 4);
    ASSERT_EQ(par.violations.size(), 2U);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(par.violations[i].kind, serial.violations[i].kind);
        EXPECT_EQ(par.violations[i].schedule, serial.violations[i].schedule);
        EXPECT_EQ(par.violations[i].detail, serial.violations[i].detail);
        EXPECT_EQ(par.violations[i].time, serial.violations[i].time);
    }
}

TEST(ParallelExplore, PathBudgetCapsTheRun) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 16;
    cfg.max_paths = 7;
    const auto res = parallel_explore([](explore::Run& r) { seeded_build(3)(r); },
                                      cfg, 2);
    EXPECT_EQ(res.stats.paths, 7U);
    EXPECT_FALSE(res.exhausted);
}

TEST(ParallelExplore, StatsSanity) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    parallel::ParallelStats st;
    const auto res =
        parallel_explore(build_crossed, cfg, 2, nullptr, {}, &st);
    EXPECT_EQ(st.workers, 2U);
    // No cache attached and no budget drops: one work item per explored path.
    EXPECT_EQ(st.tasks_executed, res.stats.paths);
    EXPECT_EQ(st.cache_hits + st.cache_misses, 0U);
    EXPECT_GT(st.busy_ns, 0U);
    EXPECT_GT(st.wall_ns, 0U);
    EXPECT_GE(st.utilization(), 0.0);
    EXPECT_LE(st.utilization(), 1.0);
}

// ---- the result cache ----

TEST(ParallelCache, WarmRerunHitsEverythingAndStaysByteIdentical) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    const std::string serial =
        result_json(explore::Explorer{build_crossed, cfg}.explore());

    parallel::ResultCache cache;
    parallel::ParallelStats cold;
    const std::string first =
        result_json(parallel_explore(build_crossed, cfg, 2, &cache, "m1", &cold));
    EXPECT_EQ(first, serial);
    EXPECT_EQ(cold.cache_hits, 0U);
    EXPECT_EQ(cold.cache_misses, cold.tasks_executed);
    EXPECT_EQ(cold.first_failure_replays, 1U);

    parallel::ParallelStats warm;
    const std::string second =
        result_json(parallel_explore(build_crossed, cfg, 2, &cache, "m1", &warm));
    EXPECT_EQ(second, serial);  // incl. the replayed first_failure trace
    EXPECT_EQ(warm.cache_misses, 0U);
    EXPECT_EQ(warm.cache_hits, warm.tasks_executed);
    EXPECT_EQ(warm.first_failure_replays, 1U);
}

TEST(ParallelCache, FirstFailureIsTheReplayOfItsScheduleColdAndWarm) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    explore::Explorer ex{build_crossed, cfg};
    parallel::ResultCache cache;
    for (const char* run : {"cold", "warm"}) {
        parallel::ParallelStats st;
        const auto res = parallel_explore(build_crossed, cfg, 2, &cache, "m1", &st);
        ASSERT_TRUE(res.first_failure.has_value()) << run;
        const explore::PathResult& ff = *res.first_failure;
        const explore::PathResult replayed = ex.replay(ff.schedule);
        EXPECT_EQ(ff.schedule, res.violations.front().schedule) << run;
        EXPECT_EQ(csv_of(ff.trace), csv_of(replayed.trace)) << run;
        ASSERT_EQ(ff.violations.size(), replayed.violations.size()) << run;
        for (std::size_t i = 0; i < ff.violations.size(); ++i) {
            EXPECT_EQ(ff.violations[i].kind, replayed.violations[i].kind) << run;
            EXPECT_EQ(ff.violations[i].detail, replayed.violations[i].detail) << run;
            EXPECT_EQ(ff.violations[i].time, replayed.violations[i].time) << run;
        }
        EXPECT_EQ(st.first_failure_replays, 1U) << run;
    }
}

TEST(ParallelCache, StaleModelFingerprintMustMiss) {
    // The cache-poisoning guard: a changed model is announced by a changed
    // fingerprint, and every lookup under the new fingerprint must miss even
    // though the plan prefixes are identical.
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    parallel::ResultCache cache;
    (void)parallel_explore(build_crossed, cfg, 2, &cache, "model-v1");
    ASSERT_GT(cache.stats().entries, 0U);

    parallel::ParallelStats st;
    const std::string fresh = result_json(
        parallel_explore(build_crossed, cfg, 2, &cache, "model-v2", &st));
    EXPECT_EQ(st.cache_hits, 0U);
    EXPECT_EQ(st.cache_misses, st.tasks_executed);
    EXPECT_EQ(fresh, result_json(explore::Explorer{build_crossed, cfg}.explore()));
}

TEST(ParallelCache, ChangedExploreConfigMustMiss) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    parallel::ResultCache cache;
    (void)parallel_explore(build_crossed, cfg, 2, &cache, "m1");

    explore::ExploreConfig deeper = cfg;
    deeper.preemption_bound = 2;  // different config digest, same fingerprint
    parallel::ParallelStats st;
    (void)parallel_explore(build_crossed, deeper, 2, &cache, "m1", &st);
    EXPECT_EQ(st.cache_hits, 0U);
}

TEST(ParallelCache, KeySchemaSeparatesModelsConfigsAndPlans) {
    explore::ExploreConfig a;
    explore::ExploreConfig b;
    b.preemption_bound = a.preemption_bound + 1;
    const std::vector<std::uint32_t> p1{0, 1};
    const std::vector<std::uint32_t> p2{0, 2};
    EXPECT_NE(parallel::expansion_cache_key("m", a, p1),
              parallel::expansion_cache_key("m", b, p1));
    EXPECT_NE(parallel::expansion_cache_key("m", a, p1),
              parallel::expansion_cache_key("m", a, p2));
    EXPECT_NE(parallel::expansion_cache_key("m1", a, p1),
              parallel::expansion_cache_key("m2", a, p1));

    const fault::FaultPlan plan_a = *fault::FaultPlan::parse(kMiniPlan);
    fault::FaultPlan plan_b = plan_a;
    plan_b.specs[0].probability = 0.9;
    EXPECT_NE(parallel::campaign_cache_key("m", plan_a, 1),
              parallel::campaign_cache_key("m", plan_b, 1));
    EXPECT_NE(parallel::campaign_cache_key("m", plan_a, 1),
              parallel::campaign_cache_key("m", plan_a, 2));
}

// ---- campaigns ----

TEST(ParallelCampaign, ByteIdenticalToSerialAcrossThreadCounts) {
    const fault::FaultPlan plan = *fault::FaultPlan::parse(kMiniPlan);
    const fault::CampaignConfig cc{1, 12};
    const std::string serial =
        campaign_json(fault::run_campaign(plan, cc, kMiniRunner));
    for (const unsigned jobs : {1U, 2U, 4U, 8U}) {
        parallel::ParallelConfig pc;
        pc.jobs = jobs;
        const std::string par =
            campaign_json(parallel::run_campaign(plan, cc, kMiniRunner, pc));
        EXPECT_EQ(par, serial) << "jobs=" << jobs;
    }
}

TEST(ParallelCampaign, WarmCacheServesRunsByteIdentical) {
    const fault::FaultPlan plan = *fault::FaultPlan::parse(kMiniPlan);
    const fault::CampaignConfig cc{7, 8};
    parallel::ResultCache cache;
    parallel::ParallelConfig pc;
    pc.jobs = 2;
    pc.cache = &cache;
    pc.model_fingerprint = "mini-v1";

    parallel::ParallelStats cold;
    const std::string first =
        campaign_json(parallel::run_campaign(plan, cc, kMiniRunner, pc, &cold));
    EXPECT_EQ(cold.cache_hits, 0U);
    EXPECT_EQ(cold.cache_misses, 8U);

    parallel::ParallelStats warm;
    const std::string second =
        campaign_json(parallel::run_campaign(plan, cc, kMiniRunner, pc, &warm));
    EXPECT_EQ(warm.cache_hits, 8U);
    EXPECT_EQ(warm.cache_misses, 0U);
    EXPECT_EQ(second, first);
    EXPECT_EQ(first, campaign_json(fault::run_campaign(plan, cc, kMiniRunner)));
}

// ---- observability ----

TEST(ParallelObs, CountersExportThroughTheRegistry) {
    explore::ExploreConfig cfg;
    cfg.preemption_bound = 1;
    parallel::ParallelStats st;
    (void)parallel_explore(build_crossed, cfg, 2, nullptr, {}, &st);

    obs::Registry reg;
    parallel::register_parallel_stats(reg, st);
    std::ostringstream prom;
    reg.write_prometheus(prom);
    const std::string text = std::move(prom).str();
    for (const char* name :
         {"slm_parallel_workers", "slm_parallel_tasks_executed_total",
          "slm_parallel_tasks_stolen_total", "slm_parallel_cache_hits_total",
          "slm_parallel_cache_misses_total", "slm_parallel_utilization"}) {
        EXPECT_NE(text.find(name), std::string::npos) << name;
    }
    const obs::Gauge* executed =
        reg.find_gauge("slm_parallel_tasks_executed_total");
    ASSERT_NE(executed, nullptr);
    EXPECT_EQ(executed->value(), static_cast<double>(st.tasks_executed));
}
