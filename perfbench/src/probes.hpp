#pragma once

// Host-clock probes for the traced run. They attach only through the public
// observer hooks (sim::Kernel::add_observer, rtos::OsCore::add_observer) and
// split the host time of one simulation into three disjoint buckets:
//
//   sim   no process is Running: the kernel's own scheduling, event and
//         time-advance work between two process activations;
//   rtos  a process is Running inside the RTOS model: from a task leaving
//         Running until its process yields to the kernel, and from a process
//         resuming until a task enters Running;
//   body  everything else a Running process does (task bodies, codec calls,
//         channel payload copies, stimuli).
//
// The cost of a probe callback lands in the bucket the callback switches to;
// calibrated_probe_cost_ns() measures it and LayerTotals are reported with it
// subtracted.

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "harness.hpp"
#include "rtos/core.hpp"
#include "sim/kernel.hpp"

namespace perfbench {

namespace sim = slm::sim;
namespace rtos = slm::rtos;
using slm::SimTime;

/// Layer counters and host times of one or more traced simulations.
struct LayerTotals {
    double sim_s = 0;
    double rtos_s = 0;
    double body_s = 0;
    std::uint64_t activations = 0;
    std::uint64_t delta_cycles = 0;
    std::uint64_t time_advances = 0;
    std::uint64_t processes_created = 0;
    std::uint64_t stacks_recycled = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t isr_entries = 0;
    std::uint64_t syscalls = 0;
    std::vector<double> switch_ns;  ///< host time of zero-simulated-time task switches

    void add(const LayerTotals& o);
};

/// The shared clock of one simulation's probes; single-threaded like the
/// kernel it observes.
class HostTimeline {
public:
    explicit HostTimeline(double probe_cost_ns) : cost_ns_(probe_cost_ns) {}

    void process_running();
    void process_stopped();
    void task_running(const void* task);
    void task_stopped(const void* task);

    /// Host time of the last callback.
    [[nodiscard]] Clock::time_point last() const { return last_; }
    /// Buckets with the calibrated probe cost removed.
    void fill(LayerTotals& out) const;

private:
    enum class Mode { Kernel, Pending, Body, Os };
    void advance(Mode next);

    double cost_ns_;
    Mode mode_ = Mode::Kernel;
    bool started_ = false;
    Clock::time_point last_{};
    double bucket_s_[3] = {0, 0, 0};        ///< sim, rtos, body
    std::uint64_t charged_[3] = {0, 0, 0};  ///< callbacks whose cost each bucket holds
    double pending_s_ = 0;
    std::uint64_t pending_charged_ = 0;
    const void* left_task_ = nullptr;
};

/// Host time of one probe callback, measured once per process by driving a
/// timeline directly.
[[nodiscard]] double calibrated_probe_cost_ns();

/// Thread-safe sum of LayerTotals across simulations (explore runs paths on
/// two worker threads).
class LayerSink {
public:
    void add(const LayerTotals& t);
    [[nodiscard]] LayerTotals get() const;

private:
    mutable std::mutex mu_;
    LayerTotals sum_;
};

/// One simulation's probes: a kernel observer plus one observer per OS core.
/// attach() is the body of a VocoderConfig::on_os / SystemOptions::on_os
/// hook. Counters are read when each core tears down; the first teardown
/// closes the timeline, as the run is over by then. With a sink, the totals
/// are added to it on destruction.
class SimProbes {
public:
    explicit SimProbes(LayerSink* sink = nullptr);
    SimProbes(const SimProbes&) = delete;
    SimProbes& operator=(const SimProbes&) = delete;
    ~SimProbes();

    void attach(rtos::OsCore& os);
    [[nodiscard]] LayerTotals totals() const;

private:
    class KernelProbe;
    class CoreProbe;

    /// Read the kernel counters and detach from the kernel; idempotent.
    void close();

    HostTimeline tl_;
    LayerSink* sink_;
    std::unique_ptr<KernelProbe> kprobe_;
    std::vector<std::unique_ptr<CoreProbe>> cores_;
    sim::Kernel* kernel_ = nullptr;
    bool closed_ = false;
    LayerTotals counts_;
};

}  // namespace perfbench
