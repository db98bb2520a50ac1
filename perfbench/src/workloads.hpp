#pragma once

// The four workloads and the metric tables they report into.

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "vocoder/codec.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

struct MetricSpec {
    const char* name;
    const char* unit;
};

/// End-to-end metrics, reported by every workload with tracing off. Each
/// workload defines its operation and its control (see GLOSSARY.md).
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"peak_rss_mb", "MB"},        {"op_ms_p50", "ms"},
    {"work_per_s", "1/s"},   {"control_ms_p50", "ms"},     {"op_over_control", "ratio"},
};

/// Per-layer metrics, reported by every workload's traced run; a layer the
/// workload does not exercise reports 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"sim.activations", "count"},
    {"sim.delta_cycles", "count"},
    {"sim.time_advances", "count"},
    {"sim.processes_created", "count"},
    {"sim.stack_pool_hit_ratio", "ratio"},
    {"sim.self_ns_per_activation", "ns"},
    {"sim.self_s", "s"},
    {"rtos.dispatches", "count"},
    {"rtos.context_switches", "count"},
    {"rtos.preemptions", "count"},
    {"rtos.isr_entries", "count"},
    {"rtos.syscalls", "count"},
    {"rtos.switch_ns_p50", "ns"},
    {"rtos.switch_ns_p99", "ns"},
    {"rtos.self_s", "s"},
    {"rtos.overhead_ns_per_switch", "ns"},
    {"vocoder.codec_us_per_frame", "us"},
    {"vocoder.input_ms", "ms"},
    {"table1.arch_us_per_frame", "us"},
    {"table1.unsched_us_per_frame", "us"},
    {"table1.impl_us_per_frame", "us"},
    {"table1.arch_over_unsched", "ratio"},
    {"table1.sim_us_per_frame", "us"},
    {"table1.rtos_us_per_frame", "us"},
    {"table1.residual_us_per_frame", "us"},
    {"iss.ns_per_instr", "ns"},
    {"iss.chain_hit_ratio", "ratio"},
    {"iss.instructions_per_frame", "count"},
    {"iss.guest_build_ms", "ms"},
    {"sys.elaborate_ms_p50", "ms"},
    {"sys.run_ms_p50", "ms"},
    {"sys.enumerate_ms", "ms"},
    {"arch.bus_transfers", "count"},
    {"arch.bus_bytes", "bytes"},
    {"obs.spans_recorded", "count"},
    {"obs.attribution_ms_p50", "ms"},
    {"obs.span_overhead", "ratio"},
    {"soak.generate_ms", "ms"},
    {"soak.jobs", "count"},
    {"soak.preemptions", "count"},
    {"soak.deadline_misses", "count"},
    {"analysis.rta_us_per_set", "us"},
    {"explore.paths", "count"},
    {"explore.choice_points", "count"},
    {"explore.pruned", "count"},
    {"explore.us_per_path", "us"},
    {"parallel.utilization", "ratio"},
    {"parallel.tasks_stolen", "count"},
    {"parallel.busy_s", "s"},
    {"bench.tracing_overhead", "ratio"},
};

/// What a workload measured with tracing off.
struct EndToEnd {
    std::vector<double> setup_s;     ///< one sample per set-up repetition
    std::vector<double> op_ms;       ///< one sample per operation
    std::vector<double> control_ms;  ///< one sample per control operation
    std::vector<double> ratio;       ///< op / control, one per in-run pair
    double work = 0;                 ///< work items completed by the operations
    double work_s = 0;               ///< host seconds those operations took
};

/// The state one run accumulates: the ledger of checked operations, the
/// report, and (traced run) the per-layer values by name.
struct RunContext {
    Options opt;
    Ledger ledger;
    Report report;
    std::map<std::string, double> layer;
    SpanLog spans;  ///< traced run only

    /// Emit the end-to-end metrics in kEndToEnd order.
    void end_to_end(const EndToEnd& e);
    /// Emit every kPerLayer metric, 0 where the workload left it unset.
    void per_layer();
    /// Record the per-layer sim.* and rtos.* rows of a traced pass.
    void layer_totals(const LayerTotals& t);
    /// Print the workload's simulated-result digest.
    void digest(const Digest& d) const;
};

void run_table1(RunContext& ctx);

/// Host us per frame of Encoder::encode + Decoder::decode called directly on
/// `input`, the codec floor under every vocoder model; the round trip is a
/// checked operation.
[[nodiscard]] double codec_us_per_frame(RunContext& ctx,
                                        const std::vector<slm::vocoder::Frame>& input);
void run_soak(RunContext& ctx);
void run_sweep(RunContext& ctx);
void run_explore(RunContext& ctx);

/// Input streams derived from the workload seed, one per kind of input.
enum Stream : std::uint64_t {
    kTable1Input = 1,   ///< speech input of the table1 models
    kSoakScenarios = 2, ///< first soak::generate seed
    kSweepInput = 3,    ///< speech input of the sweep candidates
    kExploreModel = 4,  ///< wake time, slice length and task values
};

/// Deterministic 64-bit mix of the workload seed into an input seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench
