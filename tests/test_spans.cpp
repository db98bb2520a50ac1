#include "obs/span.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/assert.hpp"
#include "sim/time.hpp"
#include "sys/sweep.hpp"
#include "vocoder/system.hpp"

using namespace slm;
using namespace slm::time_literals;

namespace {

/// Run the canonical two-PE vocoder split with `rec` wired in; the System is
/// scoped so core teardown closes every task-state span before we look.
std::shared_ptr<vocoder::VocoderSysOutcome> run_two_pe(std::size_t frames,
                                                       obs::SpanRecorder& rec) {
    vocoder::VocoderConfig cfg;
    cfg.frames = frames;
    sys::SystemOptions opts;
    opts.base_rtos = cfg.rtos;
    opts.spans = &rec;
    sys::System system{vocoder::vocoder_app_spec(cfg.frames),
                       vocoder::vocoder_two_pe_platform(cfg),
                       vocoder::vocoder_split_mapping(), opts};
    auto outcome = vocoder::attach_vocoder_behaviors(system, cfg);
    system.run();
    return outcome;
}

bool is_task_state(obs::SpanKind k) {
    switch (k) {
        case obs::SpanKind::TaskRun:
        case obs::SpanKind::TaskReady:
        case obs::SpanKind::TaskPreempt:
        case obs::SpanKind::TaskBlock:
        case obs::SpanKind::TaskIdle:
            return true;
        default:
            return false;
    }
}

/// Reference for worst_critical_path(): the first maximum of
/// extract_critical_paths() in recording order.
obs::CriticalPath first_maximum(const std::vector<obs::CriticalPath>& paths) {
    obs::CriticalPath best;
    for (const obs::CriticalPath& cp : paths) {
        if (!best.valid || cp.total_ns > best.total_ns) {
            best = cp;
        }
    }
    return best;
}

void expect_same_segments(const std::vector<obs::PathSegment>& a,
                          const std::vector<obs::PathSegment>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("segment " + std::to_string(i));
        EXPECT_EQ(a[i].begin_ns, b[i].begin_ns);
        EXPECT_EQ(a[i].end_ns, b[i].end_ns);
        EXPECT_EQ(a[i].category, b[i].category);
        EXPECT_EQ(a[i].who, b[i].who);
    }
}

void expect_same_path(const obs::CriticalPath& a, const obs::CriticalPath& b) {
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.token_id, b.token_id);
    EXPECT_EQ(a.born_ns, b.born_ns);
    EXPECT_EQ(a.anchor_ns, b.anchor_ns);
    EXPECT_EQ(a.recorded_ns, b.recorded_ns);
    EXPECT_EQ(a.total_ns, b.total_ns);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(a.sink, b.sink);
    EXPECT_EQ(a.by_category, b.by_category);
    expect_same_segments(a.segments, b.segments);
}

/// worst_critical_path() extracts only the worst sample from an index
/// filtered to it; it must equal the first maximum of the full extraction.
void expect_worst_is_first_maximum(const obs::SpanRecorder& rec) {
    expect_same_path(obs::worst_critical_path(rec),
                     first_maximum(obs::extract_critical_paths(rec)));
}

SimTime ns(std::uint64_t v) { return nanoseconds(v); }

void state(obs::SpanRecorder& rec, std::uint64_t b, std::uint64_t e, obs::SpanKind kind,
           std::string_view pe, std::string_view task) {
    (void)rec.complete(ns(b), ns(e), kind, pe, task);
}

void latency(obs::SpanRecorder& rec, std::uint64_t at, std::uint64_t sample,
             std::string_view pe, std::string_view sink, obs::TokenRef token) {
    (void)rec.instant(ns(at), obs::SpanKind::Latency, pe, sink, {}, token, 0, sample);
}

constexpr obs::TokenRef kTok7{7, 1000};
constexpr obs::TokenRef kTok8{8, 1000};

/// A two-hop custody chain, token 7 born at 1000 ns: "enc" on PE0 holds it
/// until its send on bits_q ends at 2600, the token is in flight toward
/// "dec" on PE1 until dec's recv ends at 3500, and dec holds it after that.
/// dec's last state span (Run from 4800) is still open. No latency records.
void build_custody_chain(obs::SpanRecorder& rec) {
    using K = obs::SpanKind;
    state(rec, 0, 1500, K::TaskRun, "PE0", "enc");
    state(rec, 1500, 1800, K::TaskPreempt, "PE0", "enc");
    state(rec, 1800, 2600, K::TaskRun, "PE0", "enc");
    state(rec, 2600, 9000, K::TaskBlock, "PE0", "enc");
    (void)rec.complete(ns(2200), ns(2600), K::Send, "PE0", "bits_q", "enc", kTok7);
    state(rec, 0, 2800, K::TaskBlock, "PE1", "dec");
    state(rec, 2800, 3000, K::TaskReady, "PE1", "dec");
    state(rec, 3000, 4200, K::TaskRun, "PE1", "dec");
    state(rec, 4500, 4800, K::TaskIdle, "PE1", "dec");
    (void)rec.begin_span(ns(4800), K::TaskRun, "PE1", "dec");
    (void)rec.complete(ns(500), ns(3500), K::Recv, "PE1", "bits_q", "dec", kTok7);
}

struct AssertTripped {
    std::string msg;
};

/// Routes SLM_ASSERT failures into an AssertTripped exception for its scope.
class ThrowingAsserts {
public:
    ThrowingAsserts() : prev_(sim::set_assert_handler(&trip)) {}
    ~ThrowingAsserts() { sim::set_assert_handler(prev_); }
    ThrowingAsserts(const ThrowingAsserts&) = delete;
    ThrowingAsserts& operator=(const ThrowingAsserts&) = delete;

private:
    static void trip(const sim::AssertInfo& ai) { throw AssertTripped{ai.msg}; }
    sim::AssertHandler prev_;
};

template <typename F>
std::string assert_message(F&& f) {
    try {
        f();
    } catch (const AssertTripped& a) {
        return a.msg;
    }
    return {};
}

}  // namespace

// ---- SpanRecorder mechanics ----

TEST(SpanRecorderTest, IdsAreDenseAndOpenCountTracksLifecycle) {
    obs::SpanRecorder rec;
    const std::uint64_t a =
        rec.begin_span(1_us, obs::SpanKind::Job, "PE0", "task_a");
    const std::uint64_t b =
        rec.begin_span(2_us, obs::SpanKind::Recv, "PE0", "chan", "task_a", {}, a);
    EXPECT_EQ(a, 1u);  // span id = record index + 1
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(rec.size(), 2u);
    EXPECT_EQ(rec.open_count(), 2u);
    EXPECT_EQ(rec.rec(0).t_end_ns, obs::SpanRecorder::kOpenEnd);

    rec.end_span(b, 5_us);
    EXPECT_EQ(rec.open_count(), 1u);
    EXPECT_EQ(rec.rec(1).t_begin_ns, 2000u);
    EXPECT_EQ(rec.rec(1).t_end_ns, 5000u);
    EXPECT_EQ(rec.rec(1).parent, a);

    rec.end_span(a, 5_us);
    EXPECT_EQ(rec.open_count(), 0u);
}

TEST(SpanRecorderTest, InternsRepeatedStringsOnce) {
    obs::SpanRecorder rec;
    for (int i = 0; i < 100; ++i) {
        rec.instant(nanoseconds(static_cast<std::uint64_t>(i)),
                    obs::SpanKind::ChannelOp, "PE0", "frame_q", "send");
    }
    EXPECT_EQ(rec.size(), 100u);
    // "", "PE0", "frame_q", "send" — one entry each no matter the repeats.
    EXPECT_EQ(rec.string_count(), 4u);
    EXPECT_EQ(rec.str(rec.rec(0).name), "frame_q");
    EXPECT_EQ(rec.rec(0).name, rec.rec(99).name);
}

TEST(SpanRecorderTest, MutatorsRewriteOpenSpansInPlace) {
    obs::SpanRecorder rec;
    const std::uint64_t id =
        rec.begin_span(0_us, obs::SpanKind::TaskReady, "PE0", "worker");
    rec.reclassify(id, obs::SpanKind::TaskPreempt);
    rec.set_token(id, obs::TokenRef{42, 1000});
    rec.set_value(id, 7);
    rec.end_span(id, 3_us);

    const obs::SpanRecorder::SpanRec& r = rec.rec(0);
    EXPECT_EQ(static_cast<obs::SpanKind>(r.kind), obs::SpanKind::TaskPreempt);
    EXPECT_EQ(r.token_id, 42u);
    EXPECT_EQ(r.token_born_ns, 1000u);
    EXPECT_EQ(r.value, 7u);
}

TEST(SpanRecorderTest, InstantAndCompleteAreClosedOnArrival) {
    obs::SpanRecorder rec;
    rec.instant(4_us, obs::SpanKind::Isr, "PE1", "bus_irq");
    rec.complete(1_us, 2_us, obs::SpanKind::BusXfer, "", "bits_q", "sys_bus",
                 obs::TokenRef{3, 0});
    EXPECT_EQ(rec.open_count(), 0u);
    EXPECT_EQ(rec.rec(0).t_begin_ns, rec.rec(0).t_end_ns);
    EXPECT_EQ(rec.rec(1).t_begin_ns, 1000u);
    EXPECT_EQ(rec.rec(1).t_end_ns, 2000u);
    EXPECT_EQ(rec.str(rec.rec(1).pe), "");
    EXPECT_EQ(rec.rec(1).token_id, 3u);
}

TEST(SpanRecorderTest, ClearResetsRecordsStringsAndOpenCount) {
    obs::SpanRecorder rec;
    const std::uint64_t id = rec.begin_span(1_us, obs::SpanKind::Job, "PE0", "t");
    (void)id;
    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.open_count(), 0u);
    // Ids restart dense after clear.
    EXPECT_EQ(rec.begin_span(0_us, obs::SpanKind::Job, "PE0", "t"), 1u);
}

// ---- end-to-end: the two-PE vocoder ----

TEST(SpanModelTest, EveryTokenCriticalPathIsExact) {
    obs::SpanRecorder rec;
    auto outcome = run_two_pe(5, rec);
    ASSERT_TRUE(outcome->data_ok);

    const std::vector<obs::CriticalPath> paths = obs::extract_critical_paths(rec);
    ASSERT_EQ(paths.size(), 5u);  // one per frame
    for (const obs::CriticalPath& cp : paths) {
        EXPECT_TRUE(cp.valid);
        EXPECT_TRUE(cp.exact()) << "token " << cp.token_id << ": categories sum to "
                                << cp.category_sum() << " but observed latency is "
                                << cp.total_ns;
        EXPECT_EQ(cp.recorded_ns - cp.anchor_ns, cp.total_ns);
        EXPECT_GE(cp.hops, 1u);  // driver -> encoder -> decoder crosses channels
        EXPECT_EQ(cp.sink, "decoder");
        // Segments are contiguous and cover the window exactly.
        ASSERT_FALSE(cp.segments.empty());
        EXPECT_EQ(cp.segments.front().begin_ns, cp.anchor_ns);
        EXPECT_EQ(cp.segments.back().end_ns, cp.recorded_ns);
        for (std::size_t i = 1; i < cp.segments.size(); ++i) {
            EXPECT_EQ(cp.segments[i].begin_ns, cp.segments[i - 1].end_ns);
        }
    }
    // worst_critical_path picks the largest sample of the same set.
    const obs::CriticalPath worst = obs::worst_critical_path(rec);
    ASSERT_TRUE(worst.valid);
    std::uint64_t max_total = 0;
    for (const obs::CriticalPath& cp : paths) {
        max_total = std::max(max_total, cp.total_ns);
    }
    EXPECT_EQ(worst.total_ns, max_total);
}

// ---- critical-path extraction on hand-built recorders ----

TEST(SpanPathTest, CustodyChainPartitionsAlongEachHolder) {
    obs::SpanRecorder rec;
    build_custody_chain(rec);
    latency(rec, 5000, 4000, "PE1", "dec", kTok7);

    const std::vector<obs::CriticalPath> paths = obs::extract_critical_paths(rec);
    ASSERT_EQ(paths.size(), 1u);
    const obs::CriticalPath& cp = paths.front();
    ASSERT_TRUE(cp.exact());
    EXPECT_EQ(cp.hops, 2u);
    using C = obs::PathCategory;
    expect_same_segments(cp.segments, {{1000, 1500, C::Compute, "enc"},
                                       {1500, 1800, C::Preempt, "enc"},
                                       {1800, 2200, C::Compute, "enc"},
                                       {2200, 2600, C::Bus, "enc"},
                                       {2600, 2800, C::Deliver, "bits_q"},
                                       {2800, 3000, C::Ready, "bits_q"},
                                       {3000, 3500, C::DstBusy, "bits_q"},
                                       {3500, 4200, C::Compute, "dec"},
                                       {4200, 4800, C::Other, "dec"},
                                       {4800, 5000, C::Compute, "dec"}});
    expect_worst_is_first_maximum(rec);
}

TEST(SpanPathTest, TiedMaximumResolvesToFirstRecorded) {
    for (const bool seven_first : {true, false}) {
        SCOPED_TRACE(seven_first ? "token 7 first" : "token 8 first");
        obs::SpanRecorder rec;
        build_custody_chain(rec);
        latency(rec, 4000, 500, "PE1", "dec", kTok8);
        latency(rec, 5000, 4000, "PE1", "dec", seven_first ? kTok7 : kTok8);
        latency(rec, 5000, 4000, "PE1", "dec", seven_first ? kTok8 : kTok7);
        const obs::CriticalPath worst = obs::worst_critical_path(rec);
        ASSERT_TRUE(worst.valid);
        EXPECT_EQ(worst.token_id, seven_first ? 7u : 8u);
        EXPECT_EQ(worst.hops, seven_first ? 2u : 0u);  // token 8 never hops
        expect_worst_is_first_maximum(rec);
    }
}

TEST(SpanPathTest, UncorrelatedSampleIsHeldByItsSink) {
    obs::SpanRecorder rec;
    build_custody_chain(rec);
    latency(rec, 5000, 1000, "PE1", "dec", kTok7);
    latency(rec, 5000, 2000, "PE1", "dec", {});  // the worst, kNoTokenId
    const obs::CriticalPath worst = obs::worst_critical_path(rec);
    ASSERT_TRUE(worst.exact());
    EXPECT_EQ(worst.token_id, obs::kNoTokenId);
    EXPECT_EQ(worst.hops, 0u);
    EXPECT_EQ(worst.sink, "dec");
    EXPECT_EQ(worst.anchor_ns, 3000u);
    expect_worst_is_first_maximum(rec);
}

TEST(SpanPathTest, SinkWithoutTimelineIsEnvironment) {
    obs::SpanRecorder rec;
    build_custody_chain(rec);
    latency(rec, 5000, 4000, "PE1", "dec", kTok7);
    latency(rec, 6000, 4500, "", "stimulus", kTok8);  // the worst
    const obs::CriticalPath worst = obs::worst_critical_path(rec);
    ASSERT_TRUE(worst.exact());
    ASSERT_EQ(worst.segments.size(), 1u);
    EXPECT_EQ(worst.segments.front().category, obs::PathCategory::Env);
    EXPECT_EQ(worst.segments.front().who, "stimulus");
    expect_worst_is_first_maximum(rec);
}

TEST(SpanPathTest, OpenLastStateSpanRunsToTheSample) {
    obs::SpanRecorder rec;
    build_custody_chain(rec);
    latency(rec, 7000, 2000, "PE1", "dec", kTok8);  // all inside dec's open Run
    const obs::CriticalPath worst = obs::worst_critical_path(rec);
    ASSERT_TRUE(worst.exact());
    ASSERT_EQ(worst.segments.size(), 1u);
    EXPECT_EQ(worst.segments.front().category, obs::PathCategory::Compute);
    EXPECT_EQ(worst.segments.front().begin_ns, 5000u);
    EXPECT_EQ(worst.segments.front().end_ns, 7000u);
    expect_worst_is_first_maximum(rec);
}

TEST(SpanPathTest, UnorderedStateTimelineTripsTheSearchInvariant) {
    const ThrowingAsserts guard;
    using K = obs::SpanKind;
    // Overlapping closed spans, and a closed span after a still-open one:
    // both break the order that binary search relies on.
    for (const bool open_first : {false, true}) {
        SCOPED_TRACE(open_first ? "open span not last" : "overlapping spans");
        obs::SpanRecorder rec;
        if (open_first) {
            (void)rec.begin_span(ns(0), K::TaskRun, "PE0", "t");
        } else {
            state(rec, 0, 10, K::TaskRun, "PE0", "t");
        }
        state(rec, 5, 15, K::TaskReady, "PE0", "t");
        latency(rec, 20, 20, "PE0", "t", {});
        const std::string expected = "non-overlapping";
        EXPECT_NE(assert_message([&] { (void)obs::worst_critical_path(rec); })
                      .find(expected),
                  std::string::npos);
        EXPECT_NE(assert_message([&] { (void)obs::extract_critical_paths(rec); })
                      .find(expected),
                  std::string::npos);
    }
}

TEST(SpanModelTest, SpanDagInvariantsHold) {
    obs::SpanRecorder rec;
    (void)run_two_pe(3, rec);

    // Teardown closed everything.
    EXPECT_EQ(rec.open_count(), 0u);
    ASSERT_GT(rec.size(), 0u);

    std::size_t with_parent = 0;
    std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> state_end;
    for (std::size_t i = 0; i < rec.size(); ++i) {
        const obs::SpanRecorder::SpanRec& r = rec.rec(i);
        EXPECT_LT(r.kind, obs::kSpanKindCount);
        EXPECT_NE(r.t_end_ns, obs::SpanRecorder::kOpenEnd);
        EXPECT_LE(r.t_begin_ns, r.t_end_ns);
        if (r.parent != 0) {
            // No orphan or forward parents: a parent is an earlier span.
            ++with_parent;
            ASSERT_LE(r.parent, rec.size());
            EXPECT_LT(r.parent, i + 1);  // strictly earlier than this span's id
            EXPECT_LE(rec.rec(r.parent - 1).t_begin_ns, r.t_begin_ns);
        }
        if (is_task_state(static_cast<obs::SpanKind>(r.kind))) {
            // Per-task state timeline: monotone, non-overlapping spans.
            const auto key = std::make_pair(r.pe, r.name);
            const auto it = state_end.find(key);
            if (it != state_end.end()) {
                EXPECT_LE(it->second, r.t_begin_ns)
                    << "overlapping state spans for " << rec.str(r.pe) << "/"
                    << rec.str(r.name);
            }
            state_end[key] = r.t_end_ns;
        }
    }
    // Recv/Send/Latency spans hang off their Job spans.
    EXPECT_GT(with_parent, 0u);
}

TEST(SpanModelTest, SpanDumpIsDeterministicAcrossRuns) {
    obs::SpanRecorder a;
    obs::SpanRecorder b;
    (void)run_two_pe(3, a);
    (void)run_two_pe(3, b);
    std::ostringstream ja;
    std::ostringstream jb;
    obs::write_span_json(ja, a);
    obs::write_span_json(jb, b);
    EXPECT_EQ(ja.str(), jb.str());
    EXPECT_NE(ja.str().find("\"schema\":\"slm-span-dump-v1\""), std::string::npos);
    EXPECT_NE(ja.str().find("\"kind\":\"latency\""), std::string::npos);
}

TEST(SpanModelTest, OpenSpanDumpsEndNull) {
    obs::SpanRecorder rec;
    (void)rec.begin_span(1_us, obs::SpanKind::Job, "PE0", "stuck");
    std::ostringstream js;
    obs::write_span_json(js, rec);
    EXPECT_NE(js.str().find("\"end_ns\":null"), std::string::npos);
}

TEST(SpanModelTest, PerfettoExportIsWellFormedAndCarriesFlows) {
    obs::SpanRecorder rec;
    (void)run_two_pe(3, rec);
    std::ostringstream js;
    obs::write_perfetto_json(js, rec);
    const std::string out = js.str();
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), '[');
    EXPECT_NE(out.find("\"process_name\""), std::string::npos);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    // Cross-PE token hops produce paired flow events.
    EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"f\""), std::string::npos);

    // Determinism of the export itself.
    std::ostringstream js2;
    obs::write_perfetto_json(js2, rec);
    EXPECT_EQ(out, js2.str());
}

TEST(SpanModelTest, RegisterSpanStatsSnapshotsTheRecorder) {
    obs::SpanRecorder rec;
    (void)run_two_pe(2, rec);
    obs::Registry reg;
    obs::register_span_stats(reg, rec);
    std::ostringstream prom;
    reg.write_prometheus(prom);
    const std::string out = prom.str();
    EXPECT_NE(out.find("slm_span_records"), std::string::npos);
    EXPECT_NE(out.find("slm_span_latency_records"), std::string::npos);
    EXPECT_NE(out.find("slm_span_critical_path_total_ns"), std::string::npos);
    EXPECT_NE(out.find("slm_span_critical_path_ns{category=\"compute\"}"),
              std::string::npos);
}

// ---- sweep attribution ----

TEST(SpanSweepTest, AttributedSweepIsByteIdenticalAcrossJobs) {
    vocoder::VocoderConfig cfg;
    cfg.frames = 3;
    const sys::AppSpec app = vocoder::vocoder_app_spec(cfg.frames);
    const sys::PlatformSpec platform = vocoder::vocoder_sweep_platform(cfg);
    const std::vector<sys::MappingSpec> candidates =
        sys::enumerate_mappings(app, platform, vocoder::vocoder_enum_options());

    std::string serial;
    for (const unsigned jobs : {1u, 2u}) {
        sys::SweepConfig scfg;
        scfg.jobs = jobs;
        scfg.options.base_rtos = cfg.rtos;
        scfg.attribute = true;
        const sys::SweepResult res = sys::run_sweep(app, platform, candidates, scfg,
                                                    vocoder::vocoder_setup(cfg));
        EXPECT_TRUE(res.attributed);
        for (const sys::CandidateResult& c : res.candidates) {
            EXPECT_TRUE(c.attribution.valid);
            EXPECT_TRUE(c.attribution.exact())
                << c.mapping.name << ": inexact attribution";
        }
        std::ostringstream json;
        sys::write_sweep_json(json, res);
        EXPECT_NE(json.str().find("\"attribution\":{"), std::string::npos);
        if (jobs == 1) {
            serial = json.str();
        } else {
            EXPECT_EQ(json.str(), serial);
        }
    }
}

TEST(SpanSweepTest, WorstPathEqualsFirstMaximumOnEveryPermutedCandidate) {
    vocoder::VocoderConfig cfg;
    cfg.frames = 40;
    const sys::AppSpec app = vocoder::vocoder_app_spec(cfg.frames);
    const sys::PlatformSpec platform = vocoder::vocoder_sweep_platform(cfg);
    sys::EnumOptions eopts = vocoder::vocoder_enum_options();
    eopts.sweep_priorities = true;
    const std::vector<sys::MappingSpec> candidates =
        sys::enumerate_mappings(app, platform, eopts);
    ASSERT_GT(candidates.size(),
              sys::enumerate_mappings(app, platform, vocoder::vocoder_enum_options())
                  .size());
    const sys::SystemSetup setup = vocoder::vocoder_setup(cfg);
    for (const sys::MappingSpec& m : candidates) {
        SCOPED_TRACE(m.name);
        obs::SpanRecorder rec;
        sys::SystemOptions opts;
        opts.base_rtos = cfg.rtos;
        opts.spans = &rec;
        {
            sys::System system(app, platform, m, opts);
            setup(system);
            system.run();
            // As run_sweep attributes: the system alive, last states open.
            ASSERT_TRUE(obs::worst_critical_path(rec).exact());
            expect_worst_is_first_maximum(rec);
        }
        // After core teardown closed every state span.
        expect_worst_is_first_maximum(rec);
    }
}

TEST(SpanSweepTest, UnattributedSweepOmitsTheAttributionKey) {
    vocoder::VocoderConfig cfg;
    cfg.frames = 2;
    const sys::AppSpec app = vocoder::vocoder_app_spec(cfg.frames);
    const sys::PlatformSpec platform = vocoder::vocoder_sweep_platform(cfg);
    const std::vector<sys::MappingSpec> candidates =
        sys::enumerate_mappings(app, platform, vocoder::vocoder_enum_options());
    sys::SweepConfig scfg;
    scfg.options.base_rtos = cfg.rtos;
    const sys::SweepResult res = sys::run_sweep(app, platform, candidates, scfg,
                                                vocoder::vocoder_setup(cfg));
    std::ostringstream json;
    sys::write_sweep_json(json, res);
    EXPECT_EQ(json.str().find("\"attribution\""), std::string::npos);
}

TEST(SpanSweepTest, CandidateWithoutSamplesGetsNullAttribution) {
    obs::SpanRecorder rec;  // empty: no latency records at all
    const obs::CriticalPath cp = obs::worst_critical_path(rec);
    EXPECT_FALSE(cp.valid);
    EXPECT_FALSE(cp.exact());
    EXPECT_TRUE(obs::extract_critical_paths(rec).empty());

    build_custody_chain(rec);  // spans and hops, still no latency records
    EXPECT_FALSE(obs::worst_critical_path(rec).valid);
    EXPECT_TRUE(obs::extract_critical_paths(rec).empty());
}
