// sweep: the vocoder mapping sweep with priority permutations on the
// heterogeneous ARM + DSP platform, run serially one candidate at a time
// through sys::run_sweep with span attribution on. Each candidate is paired
// with its control, the same candidate with attribution off; both must
// simulate identically.

#include "obs/span.hpp"
#include "sys/sweep.hpp"
#include "vocoder/system.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace slm;
using namespace slm::vocoder;

namespace {

constexpr std::size_t kFrames = 500;      ///< 10 s of speech per candidate
constexpr double kPairsPerSecond = 48;    ///< nominal rate on the reference box

std::uint64_t digest_of(const sys::SystemMetrics& m) {
    Digest d;
    d.mix(static_cast<std::uint64_t>(m.sim_duration.ns()));
    d.mix(m.jobs_completed);
    d.mix(m.task_deadline_misses);
    d.mix(m.latency_samples);
    d.mix(m.latency_misses);
    d.mix(static_cast<std::uint64_t>(m.latency_p50.ns()));
    d.mix(static_cast<std::uint64_t>(m.latency_p95.ns()));
    d.mix(static_cast<std::uint64_t>(m.latency_max.ns()));
    for (const sys::PeMetrics& p : m.pes) {
        d.mix(p.name);
        d.mix(static_cast<std::uint64_t>(p.busy.ns()));
        d.mix(p.context_switches);
        d.mix(p.preemptions);
        d.mix(p.deadline_misses);
    }
    for (const sys::BusMetrics& b : m.buses) {
        d.mix(b.name);
        d.mix(b.transfers);
        d.mix(b.bytes);
        d.mix(static_cast<std::uint64_t>(b.busy.ns()));
        d.mix(static_cast<std::uint64_t>(b.arbitration_wait.ns()));
    }
    return d.value();
}

std::uint64_t digest_of(const obs::CriticalPath& p) {
    Digest d;
    d.mix(p.total_ns);
    d.mix(p.token_id);
    d.mix(p.hops);
    d.mix(p.sink);
    for (const std::uint64_t c : p.by_category) {
        d.mix(c);
    }
    return d.value();
}

struct Decomposed {
    double elaborate_ms = 0;
    double run_ms = 0;
    double attribution_ms = 0;
    std::size_t spans = 0;
    sys::SystemMetrics metrics;
};

/// One attributed candidate, built by hand from the calls run_sweep makes so
/// that elaboration, simulation and attribution are timed apart.
Decomposed decompose(RunContext& ctx, const sys::AppSpec& app, const sys::PlatformSpec& pf,
                     const sys::MappingSpec& m, const sys::SystemSetup& setup,
                     SimProbes* probes, std::size_t pass) {
    const std::size_t candidate = ctx.spans.begin("sweep.candidate", pass);
    obs::SpanRecorder spans;
    sys::SystemOptions opts;
    opts.spans = &spans;
    if (probes != nullptr) {
        opts.on_os = [probes](rtos::OsCore& os) { probes->attach(os); };
    }
    Decomposed d;
    std::size_t span = ctx.spans.begin("sys::System", candidate);
    auto t0 = Clock::now();
    {
        sys::System system(app, pf, m, opts);
        d.elaborate_ms = seconds_since(t0) * 1e3;
        ctx.spans.end(span);
        setup(system);
        span = ctx.spans.begin("sys::System::run", candidate);
        t0 = Clock::now();
        system.run();
        d.run_ms = seconds_since(t0) * 1e3;
        ctx.spans.end(span);
        d.metrics = system.metrics();
    }
    span = ctx.spans.begin("obs::worst_critical_path", candidate);
    t0 = Clock::now();
    const obs::CriticalPath worst = obs::worst_critical_path(spans);
    d.attribution_ms = seconds_since(t0) * 1e3;
    ctx.spans.end(span);
    ctx.spans.end(candidate);
    d.spans = spans.size();
    ctx.ledger.op(worst.exact(), "traced candidate attribution exact");
    return d;
}

}  // namespace

void run_sweep(RunContext& ctx) {
    VocoderConfig cfg;
    cfg.frames = kFrames;
    cfg.seed = static_cast<std::uint32_t>(derive_seed(ctx.opt.seed, kSweepInput));
    const sys::AppSpec app = vocoder_app_spec(cfg.frames);
    const sys::PlatformSpec platform = vocoder_sweep_platform(cfg);
    sys::EnumOptions eopts = vocoder_enum_options();
    eopts.sweep_priorities = true;

    // Set-up: the candidate enumeration, repeated before every pair so its
    // median spans the whole run.
    EndToEnd e;
    std::vector<sys::MappingSpec> mappings;
    const auto enumerate = [&] {
        const auto t0 = Clock::now();
        mappings = sys::enumerate_mappings(app, platform, eopts);
        e.setup_s.push_back(seconds_since(t0));
    };
    enumerate();
    const sys::SystemSetup setup = vocoder_setup(cfg);
    sys::SweepConfig on;
    on.attribute = true;
    sys::SweepConfig off;

    const std::size_t n = ops_for(ctx.opt.seconds * (ctx.opt.trace ? 0.4 : 1.0),
                                  kPairsPerSecond, mappings.size());
    std::vector<std::uint64_t> refs(mappings.size(), 0);
    sys::SweepResult full_pass;
    std::vector<std::size_t> ranking;
    for (std::size_t i = 0; i < n; ++i) {
        if (i > 0) {
            enumerate();
        }
        const std::size_t c = i % mappings.size();
        const std::vector<sys::MappingSpec> one{mappings[c]};
        sys::SweepResult attributed;
        sys::SweepResult plain;
        double op_s = 0;
        double control_s = 0;
        for (int side = 0; side < 2; ++side) {
            // Alternate which side of the pair runs first.
            const auto t0 = Clock::now();
            if ((side == 0) == (i % 2 == 0)) {
                attributed = sys::run_sweep(app, platform, one, on, setup);
                op_s = seconds_since(t0);
            } else {
                plain = sys::run_sweep(app, platform, one, off, setup);
                control_s = seconds_since(t0);
            }
        }
        const sys::CandidateResult& a = attributed.candidates.front();
        const std::uint64_t da = digest_of(a.metrics);
        Digest full;
        full.mix(da);
        full.mix(digest_of(a.attribution));
        if (refs[c] == 0) {
            refs[c] = full.value();
        }
        ctx.ledger.op(a.attribution.exact(), "critical path exact");
        ctx.ledger.op_digest(refs[c], full.value(), "attributed candidate replay");
        ctx.ledger.op_digest(da, digest_of(plain.candidates.front().metrics),
                             "attribution changes no simulated field");
        e.op_ms.push_back(op_s * 1e3);
        e.control_ms.push_back(control_s * 1e3);
        e.ratio.push_back(op_s / control_s);
        e.work += 1;
        e.work_s += op_s;

        // Each full pass over the candidates must rank them the same way.
        full_pass.candidates.push_back(a);
        if (full_pass.candidates.size() == mappings.size()) {
            std::vector<std::size_t> r = full_pass.ranking();
            if (ranking.empty()) {
                ranking = r;
            }
            ctx.ledger.op(r == ranking, "sweep ranking stable");
            full_pass.candidates.clear();
        }
    }

    Digest d;
    for (const std::uint64_t r : refs) {
        d.mix(r);
    }
    ctx.digest(d);
    ctx.report.note("sweep (" + std::to_string(mappings.size()) + " candidates):");
    ctx.report.line("sweep_candidate_ms", summarize(e.op_ms), "ms");
    std::printf("  %-32s %.6g 1/s\n", "sweep_candidates_per_s", e.work / e.work_s);
    if (!ranking.empty()) {
        std::printf("  winner: candidate %zu\n", ranking.front());
    }

    if (!ctx.opt.trace) {
        ctx.end_to_end(e);
        return;
    }

    // Decomposed passes over every candidate: untraced for the sys/obs
    // rows, then with host-clock probes for the sim/rtos rows.
    std::vector<double> elaborate_ms;
    std::vector<double> run_ms;
    std::vector<double> attribution_ms;
    double spans = 0;
    double bus_transfers = 0;
    double bus_bytes = 0;
    double untraced_run_ms = 0;
    std::size_t pass = ctx.spans.begin("sweep.untraced_pass");
    for (const sys::MappingSpec& m : mappings) {
        const Decomposed dc = decompose(ctx, app, platform, m, setup, nullptr, pass);
        elaborate_ms.push_back(dc.elaborate_ms);
        run_ms.push_back(dc.run_ms);
        attribution_ms.push_back(dc.attribution_ms);
        untraced_run_ms += dc.run_ms;
        spans += static_cast<double>(dc.spans);
        for (const sys::BusMetrics& b : dc.metrics.buses) {
            bus_transfers += static_cast<double>(b.transfers);
            bus_bytes += static_cast<double>(b.bytes);
        }
    }
    ctx.spans.end(pass);
    LayerTotals layers;
    double traced_run_ms = 0;
    pass = ctx.spans.begin("sweep.traced_pass");
    for (const sys::MappingSpec& m : mappings) {
        SimProbes probes;
        traced_run_ms += decompose(ctx, app, platform, m, setup, &probes, pass).run_ms;
        layers.add(probes.totals());
    }
    ctx.spans.end(pass);
    ctx.layer_totals(layers);

    auto& L = ctx.layer;
    // The codec floor: every candidate encodes and decodes each frame once.
    L["vocoder.codec_us_per_frame"] = codec_us_per_frame(ctx, make_vocoder_input(cfg));
    L["sys.elaborate_ms_p50"] = percentile(elaborate_ms, 0.5);
    L["sys.run_ms_p50"] = percentile(run_ms, 0.5);
    L["sys.enumerate_ms"] = percentile(e.setup_s, 0.5) * 1e3;
    L["arch.bus_transfers"] = bus_transfers;
    L["arch.bus_bytes"] = bus_bytes;
    L["obs.spans_recorded"] = spans;
    L["obs.attribution_ms_p50"] = percentile(attribution_ms, 0.5);
    L["obs.span_overhead"] = percentile(e.ratio, 0.5);
    L["bench.tracing_overhead"] = traced_run_ms / untraced_run_ms;
    ctx.per_layer();
}

}  // namespace perfbench
