// soak: generated scenarios of all four families (periodic, mutex, pipeline,
// isr) run serially through soak::run_scenario. Each scenario is paired with
// its control: the same triple elaborated and run as a bare sys::System,
// without the soak monitor, the oracle or the mutex behaviours.

#include <sstream>

#include "analysis/analysis.hpp"
#include "soak/gen.hpp"
#include "soak/soak.hpp"
#include "sys/elaborate.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace slm;

namespace {

constexpr std::uint64_t kJobsTarget = 3000;  ///< simulated jobs per scenario
constexpr double kPairsPerSecond = 160;      ///< nominal rate on the reference box
constexpr std::size_t kRepeats = 10;         ///< scenarios re-run to check replay
constexpr std::size_t kSetupEvery = 200;  ///< pairs between set-up repetitions

struct Bare {
    double elaborate_s = 0;
    double run_s = 0;
    sys::SystemMetrics metrics;
};

Bare run_bare(const soak::Scenario& sc, SimProbes* probes, SpanLog* log = nullptr,
              std::size_t parent = SpanLog::kNoParent) {
    sys::SystemOptions opts;
    opts.base_rtos.preemption_granularity = sc.granularity;
    if (probes != nullptr) {
        opts.on_os = [probes](rtos::OsCore& os) { probes->attach(os); };
    }
    Bare b;
    const std::size_t span = log != nullptr ? log->begin("sys::System", parent) : 0;
    const auto t0 = Clock::now();
    sys::System system(sc.app, sc.platform, sc.mapping, opts);
    const auto t1 = Clock::now();
    if (log != nullptr) {
        log->end(span);
    }
    const std::size_t run_span = log != nullptr ? log->begin("sys::System::run", parent) : 0;
    system.run();
    b.run_s = seconds_since(t1);
    if (log != nullptr) {
        log->end(run_span);
    }
    b.elaborate_s = std::chrono::duration<double>(t1 - t0).count();
    b.metrics = system.metrics();
    return b;
}

std::string verdict_json(const soak::ScenarioVerdict& v) {
    std::ostringstream os;
    soak::write_verdict_json(os, v);
    return std::move(os).str();
}

}  // namespace

void run_soak(RunContext& ctx) {
    const std::size_t n = ops_for(ctx.opt.seconds * (ctx.opt.trace ? 0.5 : 1.0),
                                  kPairsPerSecond, 40);
    const std::uint64_t first_seed = derive_seed(ctx.opt.seed, kSoakScenarios) >> 16;

    // Set-up: generate the run's scenarios. Repeated every kSetupEvery
    // pairs so its median spans the whole run.
    soak::GenConfig gen;
    gen.jobs_target = kJobsTarget;
    std::vector<soak::Scenario> batch;
    EndToEnd e;
    const auto setup = [&] {
        const auto t0 = Clock::now();
        std::vector<soak::Scenario> b;
        for (std::size_t i = 0; i < n; ++i) {
            b.push_back(soak::generate(gen, first_seed + i));
        }
        e.setup_s.push_back(seconds_since(t0));
        batch = std::move(b);
    };
    setup();

    std::vector<std::string> verdicts;
    std::vector<double> elaborate_ms;
    std::vector<double> run_ms;
    std::uint64_t jobs = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t misses = 0;
    std::uint64_t bus_transfers = 0;
    std::uint64_t bus_bytes = 0;
    double bare_run_s = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (i % kSetupEvery == kSetupEvery - 1) {
            setup();
        }
        const soak::Scenario& sc = batch[i];
        // Alternate the order within a pair, as in table1.
        Bare bare;
        if (i % 2 == 1) {
            bare = run_bare(sc, nullptr);
        }
        const auto t0 = Clock::now();
        const soak::ScenarioVerdict v = soak::run_scenario(sc);
        const double op_s = seconds_since(t0);
        if (i % 2 == 0) {
            bare = run_bare(sc, nullptr);
        }
        ctx.ledger.op(!v.failed() && v.jobs_completed == v.expected_jobs,
                      "soak scenario " + v.name);
        ctx.ledger.op(bare.metrics.jobs_completed == sc.total_jobs,
                      "bare system run " + v.name);
        verdicts.push_back(verdict_json(v));
        const double control_s = bare.elaborate_s + bare.run_s;
        e.op_ms.push_back(op_s * 1e3);
        e.control_ms.push_back(control_s * 1e3);
        e.ratio.push_back(op_s / control_s);
        e.work += static_cast<double>(v.jobs_completed);
        e.work_s += op_s;
        elaborate_ms.push_back(bare.elaborate_s * 1e3);
        run_ms.push_back(bare.run_s * 1e3);
        bare_run_s += bare.run_s;
        jobs += v.jobs_completed;
        preemptions += v.preemptions;
        misses += v.deadline_misses;
        for (const sys::BusMetrics& b : bare.metrics.buses) {
            bus_transfers += b.transfers;
            bus_bytes += b.bytes;
        }
    }
    // Replay: the same scenario must give the same verdict.
    for (std::size_t i = 0; i < std::min(kRepeats, n); ++i) {
        Digest first;
        first.mix(verdicts[i]);
        Digest again;
        again.mix(verdict_json(soak::run_scenario(batch[i])));
        ctx.ledger.op_digest(first.value(), again.value(), "soak replay " + batch[i].name);
    }

    Digest d;
    for (const std::string& v : verdicts) {
        d.mix(v);
    }
    ctx.digest(d);
    ctx.report.note("soak:");
    ctx.report.line("soak_scenario_ms", summarize(e.op_ms), "ms");
    std::printf("  %-32s %.6g jobs/s (%llu jobs)\n", "soak_jobs_per_s", e.work / e.work_s,
                static_cast<unsigned long long>(jobs));

    if (!ctx.opt.trace) {
        ctx.end_to_end(e);
        return;
    }

    // Traced pass: the bare systems again with host-clock probes.
    LayerTotals layers;
    double traced_run_s = 0;
    std::size_t pass = ctx.spans.begin("soak.traced_pass");
    for (const soak::Scenario& sc : batch) {
        SimProbes probes;
        const Bare b = run_bare(sc, &probes, &ctx.spans, pass);
        traced_run_s += b.run_s;
        layers.add(probes.totals());
    }
    ctx.spans.end(pass);
    ctx.layer_totals(layers);

    // Response-time analysis, the oracle side of run_scenario.
    std::vector<double> rta_us;
    pass = ctx.spans.begin("soak.rta_pass");
    for (const soak::Scenario& sc : batch) {
        if (!sc.oracle_eligible) {
            continue;
        }
        const std::size_t span =
            ctx.spans.begin("analysis::response_time_with_blocking", pass);
        const auto t0 = Clock::now();
        const std::vector<analysis::PeriodicTaskSpec> view = soak::analysis_view(sc);
        for (std::size_t i = 0; i < view.size(); ++i) {
            (void)analysis::response_time_with_blocking(view, i, soak::blocking_bound(sc, i));
        }
        rta_us.push_back(seconds_since(t0) * 1e6);
        ctx.spans.end(span);
    }
    ctx.spans.end(pass);

    auto& L = ctx.layer;
    L["sys.elaborate_ms_p50"] = percentile(elaborate_ms, 0.5);
    L["sys.run_ms_p50"] = percentile(run_ms, 0.5);
    L["arch.bus_transfers"] = static_cast<double>(bus_transfers);
    L["arch.bus_bytes"] = static_cast<double>(bus_bytes);
    L["soak.generate_ms"] = percentile(e.setup_s, 0.5) * 1e3;
    L["soak.jobs"] = static_cast<double>(jobs);
    L["soak.preemptions"] = static_cast<double>(preemptions);
    L["soak.deadline_misses"] = static_cast<double>(misses);
    L["analysis.rta_us_per_set"] = percentile(rta_us, 0.5);
    L["bench.tracing_overhead"] = traced_run_s / bare_run_s;
    ctx.per_layer();
}

}  // namespace perfbench
