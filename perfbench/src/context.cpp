#include <cinttypes>
#include <cstdio>
#include <map>

#include "workloads.hpp"

namespace perfbench {

void RunContext::end_to_end(const EndToEnd& e) {
    const Summary op = summarize(e.op_ms);
    const Summary control = summarize(e.control_ms);
    report.line("op_ms", op, "ms");
    report.line("control_ms", control, "ms");
    report.line("op_over_control", summarize(e.ratio), "");
    const std::map<std::string, double> values = {
        {"setup_s", percentile(e.setup_s, 0.5)},
        {"peak_rss_mb", peak_rss_mb()},
        {"op_ms_p50", op.p50},
        {"work_per_s", e.work_s > 0 ? e.work / e.work_s : 0},
        {"control_ms_p50", control.p50},
        {"op_over_control", percentile(e.ratio, 0.5)},
    };
    report.note("end-to-end metrics:");
    for (const MetricSpec& m : kEndToEnd) {
        report.metric(m.name, values.at(m.name), m.unit);
    }
}

void RunContext::per_layer() {
    report.note("per-layer metrics:");
    std::size_t known = 0;
    for (const MetricSpec& m : kPerLayer) {
        const auto it = layer.find(m.name);
        known += it != layer.end();
        report.metric(m.name, it == layer.end() ? 0.0 : it->second, m.unit);
    }
    ledger.op(known == layer.size(), "every per-layer value has a row in kPerLayer");
}

void RunContext::layer_totals(const LayerTotals& t) {
    layer["sim.activations"] = static_cast<double>(t.activations);
    layer["sim.delta_cycles"] = static_cast<double>(t.delta_cycles);
    layer["sim.time_advances"] = static_cast<double>(t.time_advances);
    layer["sim.processes_created"] = static_cast<double>(t.processes_created);
    layer["sim.stack_pool_hit_ratio"] =
        t.processes_created > 0 ? static_cast<double>(t.stacks_recycled) /
                                      static_cast<double>(t.processes_created)
                                : 0.0;
    layer["sim.self_ns_per_activation"] =
        t.activations > 0 ? t.sim_s * 1e9 / static_cast<double>(t.activations) : 0.0;
    layer["sim.self_s"] = t.sim_s;
    layer["rtos.dispatches"] = static_cast<double>(t.dispatches);
    layer["rtos.context_switches"] = static_cast<double>(t.context_switches);
    layer["rtos.preemptions"] = static_cast<double>(t.preemptions);
    layer["rtos.isr_entries"] = static_cast<double>(t.isr_entries);
    layer["rtos.syscalls"] = static_cast<double>(t.syscalls);
    layer["rtos.switch_ns_p50"] = percentile(t.switch_ns, 0.5);
    layer["rtos.switch_ns_p99"] = percentile(t.switch_ns, 0.99);
    layer["rtos.self_s"] = t.rtos_s;
}

void RunContext::digest(const Digest& d) const {
    std::printf("simulated-result digest: %016" PRIx64 "\n", d.value());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xd1b54a32d192ed03ull + 1;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace perfbench
