// table1: the paper's Table 1 vocoder. Unscheduled and architecture models
// run over a long horizon in interleaved pairs (the ratio of a pair is
// immune to drift in host speed between pairs); the implementation model
// runs over a short horizon since it costs ~100x more per frame.

#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>

#include "iss/cpu.hpp"
#include "iss/engine.hpp"
#include "iss/guest_os.hpp"
#include "vocoder/codec.hpp"
#include "vocoder/iss_gen.hpp"
#include "vocoder/models.hpp"
#include "vocoder/system.hpp"
#include "vocoder/timing.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace slm;
using namespace slm::vocoder;

namespace {

constexpr std::size_t kFrames = 2000;      ///< 40 s of speech per model run
constexpr std::size_t kImplFrames = 20;    ///< implementation-model horizon
constexpr std::size_t kImplRuns = 5;
constexpr std::size_t kSetupEvery = 4;   ///< pairs between set-up repetitions
constexpr int kCodecReps = 5;
constexpr double kPairsPerSecond = 17;     ///< nominal rate on the reference box

std::uint64_t digest_of(const VocoderResult& r) {
    Digest d;
    d.mix(r.frames);
    d.mix(static_cast<std::uint64_t>(r.sim_duration.ns()));
    d.mix(r.context_switches);
    d.mix(static_cast<std::uint64_t>(r.avg_transcoding_delay.ns()));
    d.mix(static_cast<std::uint64_t>(r.max_transcoding_delay.ns()));
    d.mix(static_cast<std::uint64_t>(r.max_input_latency.ns()));
    std::uint64_t snr_bits = 0;
    std::memcpy(&snr_bits, &r.min_snr_db, sizeof snr_bits);
    d.mix(snr_bits);
    d.mix(r.data_ok ? 1u : 0u);
    return d.value();
}

/// One checked model run: data must arrive intact and the simulated fields
/// must equal those of the model's first run.
void check_run(RunContext& ctx, const VocoderResult& r, std::uint64_t& reference,
               const char* model) {
    const std::uint64_t d = digest_of(r);
    if (reference == 0) {
        reference = d;
    }
    if (!r.data_ok) {
        ctx.ledger.op(false, std::string(model) + ": data integrity");
        return;
    }
    ctx.ledger.op_digest(reference, d, model);
}

struct Refs {
    std::uint64_t unsched = 0;
    std::uint64_t arch = 0;
    std::uint64_t impl = 0;
};

struct Pairs {
    std::vector<double> unsched_us;  ///< host us per frame
    std::vector<double> arch_us;
    std::vector<double> ratio;
    std::vector<double> overhead_ns;  ///< (arch - unsched) per context switch
    double arch_s = 0;
    VocoderResult unsched;
    VocoderResult arch;
};

Pairs run_pairs(RunContext& ctx, const VocoderConfig& cfg, std::size_t n, Refs& refs,
                const std::function<void()>& setup) {
    Pairs p;
    const double per_frame = 1e6 / static_cast<double>(cfg.frames);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % kSetupEvery == kSetupEvery - 1) {
            setup();
        }
        // Alternate which model runs first so neither always gets the warmer
        // caches.
        if (i % 2 == 0) {
            p.unsched = run_vocoder_unscheduled(cfg);
            p.arch = run_vocoder_architecture(cfg);
        } else {
            p.arch = run_vocoder_architecture(cfg);
            p.unsched = run_vocoder_unscheduled(cfg);
        }
        check_run(ctx, p.unsched, refs.unsched, "unscheduled model");
        check_run(ctx, p.arch, refs.arch, "architecture model");
        p.unsched_us.push_back(p.unsched.wall_seconds * per_frame);
        p.arch_us.push_back(p.arch.wall_seconds * per_frame);
        p.ratio.push_back(p.arch.wall_seconds / p.unsched.wall_seconds);
        p.overhead_ns.push_back((p.arch.wall_seconds - p.unsched.wall_seconds) * 1e9 /
                                static_cast<double>(p.arch.context_switches));
        p.arch_s += p.arch.wall_seconds;
    }
    return p;
}

std::vector<double> run_impl(RunContext& ctx, const VocoderConfig& icfg, Refs& refs,
                             VocoderResult& last) {
    std::vector<double> us;
    for (std::size_t i = 0; i < kImplRuns; ++i) {
        last = run_vocoder_implementation(icfg);
        check_run(ctx, last, refs.impl, "implementation model");
        us.push_back(last.wall_seconds * 1e6 / static_cast<double>(icfg.frames));
    }
    return us;
}

struct IssProbe {
    double ns_per_instr = 0;
    double chain_hit_ratio = 0;
    double instructions_per_frame = 0;
};

/// Drive the guest image directly through Cpu + GuestKernel::run_slice, fed
/// with the real input, and check every frame's guest checksum.
IssProbe probe_iss(RunContext& ctx, const GuestImage& img, const std::vector<Frame>& input) {
    iss::Cpu cpu{img.program.code, 65536};
    iss::GuestKernel gk{cpu};
    gk.sem_init(kSemSubframe, 0);
    gk.sem_init(kSemFrame, 0);
    gk.sem_init(kSemBits, 0);
    gk.create_task("driver", kDriverPriority, img.driver_entry, 60000);
    gk.create_task("encoder", kEncoderPriority, img.encoder_entry, 61000);
    gk.create_task("decoder", kDecoderPriority, img.decoder_entry, 62000);

    std::size_t decoded = 0;
    std::size_t checksums_ok = 0;
    gk.set_host_notify([&](std::int32_t code, std::int32_t value) {
        if (code == kNotifyFrameDecoded) {
            decoded = static_cast<std::size_t>(value);
        } else if (code == kNotifyChecksum && decoded < input.size() &&
                   static_cast<std::uint32_t>(value) == frame_checksum(input[decoded])) {
            ++checksums_ok;
        }
    });

    const std::size_t subframes = input.size() * kSubframesPerFrame;
    std::size_t fed = 0;
    bool stuck = false;
    const auto t0 = Clock::now();
    while (!gk.all_exited()) {
        if (gk.idle()) {
            if (gk.has_sleepers()) {
                gk.skip_idle_cycles(gk.cycles_until_wake());
                continue;
            }
            if (fed >= subframes) {
                stuck = true;
                break;
            }
            const Subframe sf = subframe_of(input[fed / kSubframesPerFrame],
                                            static_cast<int>(fed % kSubframesPerFrame));
            for (int i = 0; i < kSubframeSamples; ++i) {
                cpu.store(static_cast<std::uint32_t>(kMicRxAddr + i),
                          sf.samples[static_cast<std::size_t>(i)]);
            }
            gk.sem_post_from_host(kSemSubframe);
            ++fed;
            continue;
        }
        (void)gk.run_slice(100000);
    }
    const double s = seconds_since(t0);
    ctx.ledger.op(!stuck && checksums_ok == input.size(), "ISS guest run");

    IssProbe p;
    p.ns_per_instr = s * 1e9 / static_cast<double>(cpu.retired());
    if (const iss::SuperblockEngine* eng = cpu.engine(); eng != nullptr &&
                                                       eng->blocks_executed() > 0) {
        p.chain_hit_ratio = static_cast<double>(eng->chain_hits()) /
                            static_cast<double>(eng->blocks_executed());
    }
    p.instructions_per_frame =
        static_cast<double>(cpu.retired()) / static_cast<double>(input.size());
    return p;
}

void print_paper_reference(const VocoderResult& u, const VocoderResult& a,
                           const VocoderResult& i, double time_ratio) {
    std::printf("Table 1 (simulated here | paper, DSP56600 GSM vocoder):\n");
    std::printf("  transcoding delay  unscheduled %s | 9.7 ms, architecture %s | 12.5 ms, "
                "implementation %s | 11.7 ms\n",
                u.avg_transcoding_delay.to_string().c_str(),
                a.avg_transcoding_delay.to_string().c_str(),
                i.avg_transcoding_delay.to_string().c_str());
    std::printf("  arch/unsched host time %.3fx | 1.02x, arch/unsched delay %.3fx | 1.29x\n",
                time_ratio,
                static_cast<double>(a.avg_transcoding_delay.ns()) /
                    static_cast<double>(u.avg_transcoding_delay.ns()));
    std::printf("  The vocoder is a calibrated stand-in, not validated against hardware;\n"
                "  these columns are information only and the benchmark gives no error "
                "figure.\n");
}

}  // namespace

double codec_us_per_frame(RunContext& ctx, const std::vector<Frame>& input) {
    bool ok = true;
    const double s = median_seconds(kCodecReps, [&] {
        Encoder enc;
        Decoder dec;
        for (const Frame& f : input) {
            const EncodedFrame e = enc.encode(f);
            const Frame out = dec.decode(e);
            ok = ok && e.checksum == frame_checksum(f) && snr_db(f, out) > 0;
        }
    });
    ctx.ledger.op(ok, "codec round trip");
    return s * 1e6 / static_cast<double>(input.size());
}

void run_table1(RunContext& ctx) {
    VocoderConfig cfg;
    cfg.frames = kFrames;
    cfg.seed = static_cast<std::uint32_t>(derive_seed(ctx.opt.seed, kTable1Input));
    VocoderConfig icfg = cfg;
    icfg.frames = kImplFrames;

    // Set-up: the seeded speech input and the generated guest image. It is
    // repeated between pairs so its median spans the whole run.
    std::vector<Frame> input;
    GuestImage guest;
    std::vector<double> input_s;
    std::vector<double> guest_s;
    EndToEnd e;
    const auto setup = [&] {
        const auto t0 = Clock::now();
        std::vector<Frame> in = make_vocoder_input(cfg);
        const auto t1 = Clock::now();
        GuestImage img = build_vocoder_guest(icfg.frames);
        const auto t2 = Clock::now();
        input_s.push_back(std::chrono::duration<double>(t1 - t0).count());
        guest_s.push_back(std::chrono::duration<double>(t2 - t1).count());
        e.setup_s.push_back(std::chrono::duration<double>(t2 - t0).count());
        if (!input.empty()) {
            ctx.ledger.op(in == input && img.listing == guest.listing,
                          "set-up reproduces its inputs");
        }
        input = std::move(in);
        guest = std::move(img);
    };
    setup();

    Refs refs;
    const std::size_t pairs = ops_for(ctx.opt.seconds * (ctx.opt.trace ? 0.5 : 1.0),
                                      kPairsPerSecond, 20);
    const Pairs p = run_pairs(ctx, cfg, pairs, refs, setup);
    VocoderResult impl;
    const std::vector<double> impl_us = run_impl(ctx, icfg, refs, impl);

    const Summary unsched = summarize(p.unsched_us);
    const Summary arch = summarize(p.arch_us);
    const double ratio = percentile(p.ratio, 0.5);
    print_paper_reference(p.unsched, p.arch, impl, ratio);
    ctx.report.note("table1 host time per simulated frame:");
    ctx.report.line("unsched_us_per_frame", unsched, "us");
    ctx.report.line("arch_us_per_frame", arch, "us");
    ctx.report.line("impl_us_per_frame", summarize(impl_us), "us");
    ctx.report.line("arch_over_unsched", summarize(p.ratio), "");

    Digest d;
    d.mix(refs.unsched);
    d.mix(refs.arch);
    d.mix(refs.impl);
    ctx.digest(d);

    if (!ctx.opt.trace) {
        for (const double us : p.arch_us) {
            e.op_ms.push_back(us / 1000);
        }
        for (const double us : p.unsched_us) {
            e.control_ms.push_back(us / 1000);
        }
        e.ratio = p.ratio;
        e.work = static_cast<double>(pairs * cfg.frames);
        e.work_s = p.arch_s;
        ctx.end_to_end(e);
        return;
    }

    // Traced pass: the architecture model with host-clock probes on its OS
    // core and kernel.
    const std::size_t traced = std::max<std::size_t>(pairs / 2, 5);
    LayerTotals layers;
    std::vector<double> traced_us;
    const std::size_t pass = ctx.spans.begin("table1.traced_pass");
    for (std::size_t r = 0; r < traced; ++r) {
        SimProbes probes;
        VocoderConfig tcfg = cfg;
        tcfg.on_os = [&probes](rtos::OsCore& os) { probes.attach(os); };
        const std::size_t span = ctx.spans.begin("vocoder::run_vocoder_architecture", pass);
        const VocoderResult a = run_vocoder_architecture(tcfg);
        ctx.spans.end(span);
        check_run(ctx, a, refs.arch, "traced architecture model");
        traced_us.push_back(a.wall_seconds * 1e6 / static_cast<double>(cfg.frames));
        layers.add(probes.totals());
    }
    ctx.spans.end(pass);
    ctx.layer_totals(layers);

    const double frames = static_cast<double>(traced * cfg.frames);
    std::size_t span = ctx.spans.begin("vocoder::Encoder::encode+Decoder::decode");
    const double codec = codec_us_per_frame(ctx, input);
    ctx.spans.end(span);
    const double sim_us = layers.sim_s * 1e6 / frames;
    const double rtos_us = layers.rtos_s * 1e6 / frames;
    const LayerSplit split = split_layers(
        arch.p50, {{"vocoder.codec", codec}, {"sim.self", sim_us}, {"rtos.self", rtos_us}});

    span = ctx.spans.begin("iss::GuestKernel::run_slice");
    const IssProbe iss = probe_iss(ctx, guest, std::vector<Frame>(input.begin(),
                                                                  input.begin() + kImplFrames));
    ctx.spans.end(span);
    auto& L = ctx.layer;
    L["rtos.overhead_ns_per_switch"] = percentile(p.overhead_ns, 0.5);
    L["vocoder.codec_us_per_frame"] = codec;
    L["vocoder.input_ms"] = percentile(input_s, 0.5) * 1e3;
    L["table1.arch_us_per_frame"] = arch.p50;
    L["table1.unsched_us_per_frame"] = unsched.p50;
    L["table1.impl_us_per_frame"] = percentile(impl_us, 0.5);
    L["table1.arch_over_unsched"] = ratio;
    L["table1.sim_us_per_frame"] = sim_us;
    L["table1.rtos_us_per_frame"] = rtos_us;
    L["table1.residual_us_per_frame"] = split.residual;
    L["iss.ns_per_instr"] = iss.ns_per_instr;
    L["iss.chain_hit_ratio"] = iss.chain_hit_ratio;
    L["iss.instructions_per_frame"] = iss.instructions_per_frame;
    L["iss.guest_build_ms"] = percentile(guest_s, 0.5) * 1e3;
    L["bench.tracing_overhead"] = percentile(traced_us, 0.5) / arch.p50;
    std::printf("arch_us_per_frame %.6g = codec %.6g + sim %.6g + rtos %.6g + residual %.6g\n",
                split.total, codec, sim_us, rtos_us, split.residual);
    // Probe self-check: the buckets partition the traced runs' host time.
    std::printf("traced runs: sim + rtos + body %.6g us/frame, measured %.6g us/frame\n",
                (layers.sim_s + layers.rtos_s + layers.body_s) * 1e6 / frames,
                std::accumulate(traced_us.begin(), traced_us.end(), 0.0) /
                    static_cast<double>(traced_us.size()));
    ctx.per_layer();
}

}  // namespace perfbench
