// explore: exhaustive bounded-DFS exploration of an equal-priority task set
// whose tasks all wake at the same instant and then compute in equal slices,
// so every slice boundary is a scheduling choice point. Each exploration
// runs through parallel::explore at 2 workers with no cache and is paired
// with its control, the serial explore::Explorer, whose canonical result it
// must reproduce byte for byte.

#include <sstream>

#include "explore/explore.hpp"
#include "parallel/parallel.hpp"
#include "rtos/rtos.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace slm;

namespace {

constexpr unsigned kTasks = 4;
constexpr unsigned kSlices = 4;
constexpr int kPreemptionBound = 3;
constexpr unsigned kWorkers = 2;
constexpr double kPairsPerSecond = 11;  ///< nominal rate on the reference box
constexpr int kSetupReps = 5;  ///< set-ups before each pair

/// The seeded inputs: when the tasks wake, how long a slice is, and the
/// value each task contributes to a shared sum. None of them changes the
/// shape of the schedule tree, so every seed explores the same number of
/// paths.
struct Model {
    SimTime wake;
    SimTime slice;
    std::vector<std::uint64_t> values;
};

Model make_model(std::uint64_t seed) {
    Model m;
    m.wake = microseconds(500 + static_cast<std::int64_t>(derive_seed(seed, kExploreModel) % 4500));
    m.slice = microseconds(20 + static_cast<std::int64_t>((derive_seed(seed, kExploreModel) >> 32) % 80));
    for (unsigned i = 0; i < kTasks; ++i) {
        m.values.push_back(derive_seed(seed + i, kExploreModel) >> 8);
    }
    return m;
}

explore::Explorer::BuildFn make_build(const Model& m, LayerSink* sink) {
    return [m, sink](explore::Run& run) {
        // Made before the OS core, so it is destroyed after the core's
        // teardown callback.
        SimProbes* probes = sink != nullptr ? &run.make<SimProbes>(sink) : nullptr;
        rtos::RtosConfig cfg;
        cfg.cpu_name = "CPU0";
        auto& os = run.make<rtos::RtosModel>(run.kernel(), cfg);
        if (probes != nullptr) {
            probes->attach(os);
        }
        os.init();
        auto& sum = run.make<std::uint64_t>(0);
        std::uint64_t expected = 0;
        for (unsigned i = 0; i < kTasks; ++i) {
            const std::string name = "t" + std::to_string(i);
            rtos::Task* t = os.task_create(name, rtos::TaskType::Aperiodic, {}, {}, 1);
            const std::uint64_t v = m.values[i];
            expected += v * kSlices;
            run.kernel().spawn(name, [&os, &sum, t, v, m] {
                os.task_activate(t);
                os.task_delay(m.wake);  // every task wakes at the same instant
                for (unsigned s = 0; s < kSlices; ++s) {
                    os.time_wait(m.slice);
                    sum += v;
                }
                os.task_terminate();
            });
        }
        run.expect("every slice contributed", [&sum, expected] { return sum == expected; });
        os.start();
    };
}

std::string result_json(const explore::ExploreResult& r) {
    std::ostringstream os;
    explore::write_result_json(os, r);
    return std::move(os).str();
}

}  // namespace

void run_explore(RunContext& ctx) {
    const Model model = make_model(ctx.opt.seed);
    explore::ExploreConfig cfg;
    cfg.preemption_bound = kPreemptionBound;
    cfg.max_paths = 1'000'000;
    parallel::ParallelConfig pcfg;
    pcfg.jobs = kWorkers;

    // Set-up: build the model into a fresh run (kernel, OS core, task
    // processes) and tear it down, as every explored path does. Repeated
    // before every pair so its median spans the whole run.
    EndToEnd e;
    const explore::Explorer::BuildFn build = make_build(model, nullptr);
    const auto setup = [&] {
        for (int r = 0; r < kSetupReps; ++r) {
            const auto t0 = Clock::now();
            {
                explore::Run run{cfg.kernel};
                build(run);
            }
            e.setup_s.push_back(seconds_since(t0));
        }
    };

    const std::size_t n = ops_for(ctx.opt.seconds * (ctx.opt.trace ? 0.5 : 1.0),
                                  kPairsPerSecond, 20);
    std::string reference;
    std::vector<double> us_per_path;
    std::vector<double> busy_s;
    std::vector<double> utilization;
    double stolen = 0;
    explore::ExploreStats stats;
    for (std::size_t i = 0; i < n; ++i) {
        setup();
        explore::ExploreResult par;
        explore::ExploreResult ser;
        parallel::ParallelStats ps;
        double op_s = 0;
        double control_s = 0;
        for (int side = 0; side < 2; ++side) {
            // Alternate which engine runs first.
            const auto t0 = Clock::now();
            if ((side == 0) == (i % 2 == 0)) {
                par = parallel::explore(build, cfg, pcfg, &ps);
                op_s = seconds_since(t0);
            } else {
                ser = explore::Explorer{build, cfg}.explore();
                control_s = seconds_since(t0);
            }
        }
        const std::string pj = result_json(par);
        if (reference.empty()) {
            reference = pj;
        }
        ctx.ledger.op(par.exhausted && par.violations.empty() && pj == reference &&
                          pj == result_json(ser),
                      "exploration exhausted, safe and equal to the serial engine");
        stats = par.stats;
        e.op_ms.push_back(op_s * 1e3);
        e.control_ms.push_back(control_s * 1e3);
        e.ratio.push_back(op_s / control_s);
        e.work += 1;
        e.work_s += op_s;
        us_per_path.push_back(op_s * 1e6 / static_cast<double>(par.stats.paths));
        busy_s.push_back(static_cast<double>(ps.busy_ns) * 1e-9);
        utilization.push_back(ps.utilization());
        stolen += static_cast<double>(ps.tasks_stolen);
    }

    Digest d;
    d.mix(reference);
    ctx.digest(d);
    std::printf("explore: %llu paths, %llu choice points, %llu pruned per exploration\n",
                static_cast<unsigned long long>(stats.paths),
                static_cast<unsigned long long>(stats.choice_points),
                static_cast<unsigned long long>(stats.pruned));
    ctx.report.line("explore_ms", summarize(e.op_ms), "ms");

    if (!ctx.opt.trace) {
        ctx.end_to_end(e);
        return;
    }

    // Traced pass: the same explorations with host-clock probes in every
    // path's run.
    LayerSink sink;
    const explore::Explorer::BuildFn traced_build = make_build(model, &sink);
    std::vector<double> traced_ms;
    const std::size_t pass = ctx.spans.begin("explore.traced_pass");
    for (std::size_t i = 0; i < std::max<std::size_t>(n / 2, 3); ++i) {
        const std::size_t span = ctx.spans.begin("parallel::explore", pass);
        const auto t0 = Clock::now();
        const explore::ExploreResult r = parallel::explore(traced_build, cfg, pcfg);
        traced_ms.push_back(seconds_since(t0) * 1e3);
        ctx.spans.end(span);
        ctx.ledger.op(result_json(r) == reference, "traced exploration equal");
    }
    ctx.spans.end(pass);
    ctx.layer_totals(sink.get());

    auto& L = ctx.layer;
    L["explore.paths"] = static_cast<double>(stats.paths);
    L["explore.choice_points"] = static_cast<double>(stats.choice_points);
    L["explore.pruned"] = static_cast<double>(stats.pruned);
    L["explore.us_per_path"] = percentile(us_per_path, 0.5);
    L["parallel.utilization"] = percentile(utilization, 0.5);
    L["parallel.tasks_stolen"] = stolen;
    L["parallel.busy_s"] = percentile(busy_s, 0.5);
    L["bench.tracing_overhead"] = percentile(traced_ms, 0.5) / percentile(e.op_ms, 0.5);
    ctx.per_layer();
}

}  // namespace perfbench
