// Unit tests of the benchmark's own rules: the percentile choice, the layer
// residual, digest checks and seeded inputs.

#include <gtest/gtest.h>

#include <sstream>

#include "harness.hpp"
#include "soak/gen.hpp"
#include "vocoder/system.hpp"
#include "workloads.hpp"

using namespace perfbench;

TEST(Percentile, TailIsHighestLevelWithTenSamplesBeyond) {
    EXPECT_DOUBLE_EQ(tail_level(19), 0.5);  // too few for any level: the median
    EXPECT_DOUBLE_EQ(tail_level(39), 0.5);
    EXPECT_DOUBLE_EQ(tail_level(40), 0.75);
    EXPECT_DOUBLE_EQ(tail_level(99), 0.75);
    EXPECT_DOUBLE_EQ(tail_level(100), 0.9);
    EXPECT_DOUBLE_EQ(tail_level(199), 0.9);
    EXPECT_DOUBLE_EQ(tail_level(200), 0.95);
    EXPECT_DOUBLE_EQ(tail_level(1000), 0.99);
    EXPECT_DOUBLE_EQ(tail_level(10000), 0.999);

    std::vector<double> v;
    for (int i = 100; i >= 1; --i) {
        v.push_back(i);
    }
    const Summary s = summarize(v);
    EXPECT_EQ(s.n, 100u);
    EXPECT_DOUBLE_EQ(s.p50, 50);
    EXPECT_DOUBLE_EQ(s.tail_level, 0.9);
    EXPECT_DOUBLE_EQ(s.tail, 90);
    const auto beyond = std::count_if(v.begin(), v.end(), [&](double x) { return x > s.tail; });
    EXPECT_EQ(beyond, 10);
}

TEST(LayerSplit, ResidualMakesTheSumExact) {
    const LayerSplit a = split_layers(9.9, {{"codec", 6.1}, {"sim", 1.3}, {"rtos", 0.7}});
    EXPECT_DOUBLE_EQ(a.residual, 9.9 - (6.1 + 1.3 + 0.7));
    EXPECT_EQ(a.sum(), 9.9);

    // Parts larger than the total leave a negative residual, still exact.
    const LayerSplit b = split_layers(2.0, {{"codec", 1.5}, {"sim", 0.75}});
    EXPECT_DOUBLE_EQ(b.residual, -0.25);
    EXPECT_EQ(b.sum(), 2.0);
}

TEST(Ledger, PlantedDigestMismatchIsAFailedOp) {
    Digest reference;
    reference.mix(std::uint64_t{42});
    reference.mix("sim_duration=1s");
    Digest same = reference;
    Digest planted;
    planted.mix(std::uint64_t{42});
    planted.mix("sim_duration=2s");

    Ledger ledger;
    ledger.op_digest(reference.value(), same.value(), "replay");
    EXPECT_EQ(ledger.attempted(), 1u);
    EXPECT_EQ(ledger.failed(), 0u);
    ledger.op_digest(reference.value(), planted.value(), "replay");
    EXPECT_EQ(ledger.attempted(), 2u);
    EXPECT_EQ(ledger.failed(), 1u);
    ASSERT_EQ(ledger.failures().size(), 1u);
    EXPECT_NE(ledger.failures().front().find("digest"), std::string::npos);

    Report report;
    report.metric("setup_s", 0.5, "s");
    EXPECT_NE(report.json(ledger).find("\"correct\": false"), std::string::npos);
}

namespace {

std::string scenario_json(std::uint64_t workload_seed) {
    slm::soak::GenConfig gen;
    std::ostringstream os;
    slm::soak::write_scenario_json(
        os, slm::soak::generate(gen, derive_seed(workload_seed, kSoakScenarios) >> 16));
    return std::move(os).str();
}

std::vector<slm::vocoder::Frame> speech(std::uint64_t workload_seed, std::uint64_t stream) {
    slm::vocoder::VocoderConfig cfg;
    cfg.frames = 4;
    cfg.seed = static_cast<std::uint32_t>(derive_seed(workload_seed, stream));
    return slm::vocoder::make_vocoder_input(cfg);
}

}  // namespace

TEST(Seeds, SameSeedSameInputsOtherSeedOtherInputs) {
    EXPECT_EQ(scenario_json(1), scenario_json(1));
    EXPECT_NE(scenario_json(1), scenario_json(2));
    for (const std::uint64_t stream : {std::uint64_t{kTable1Input}, std::uint64_t{kSweepInput}}) {
        EXPECT_EQ(speech(1, stream), speech(1, stream));
        EXPECT_NE(speech(1, stream), speech(2, stream));
    }
}
