#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "rtos/core.hpp"
#include "rtos/os_channels.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "sys/spec.hpp"
#include "trace/trace.hpp"

namespace slm::obs {
class SpanSink;
class SpanTracer;
}  // namespace slm::obs

namespace slm::sys {

/// The elaborator: turns an (AppSpec, PlatformSpec, MappingSpec) triple into
/// a runnable simulation — one sim::Kernel, one arch::ProcessingElement per
/// PeSpec (its RtosConfig carrying the PE's speed/policy/switch cost), one
/// arch::Bus per BusSpec, and per ChannelSpec either an intra-PE rtos::OsQueue
/// or the paper's Fig. 3 cross-PE stack (arch::BusLink + receiver-side ISR +
/// rtos::OsSemaphore). Task behaviors are either the default dataflow body
/// (receive inputs, charge exec_cost, send outputs) or caller-supplied
/// Behavior functors for models with real payload semantics (the vocoder).

/// What flows through elaborated channels: an id chosen by the sender plus
/// the birth timestamp of the value it represents. Payloads stay in model
/// state keyed by id — a token crossing a bus costs the channel's
/// message_bytes regardless, so timing needs no payload marshalling.
struct Token {
    std::uint64_t id = 0;
    SimTime born{};
};

class System;

/// Per-job execution context handed to a Behavior: channel I/O by channel
/// name, execution-time charging, and latency reporting. Valid only inside
/// the behavior invocation.
class TaskCtx {
public:
    /// Blocking receive on an input channel (OsQueue::receive intra-PE;
    /// semaphore acquire + BusLink::try_fetch cross-PE).
    [[nodiscard]] Token recv(const std::string& channel);

    /// Send on an output channel. A bus route occupies the bus for the
    /// channel's message_bytes, charging the time via OsCore::io_wait (bus
    /// occupancy has an externally fixed duration — it must not scale with
    /// this PE's speed), with this task's PE index as the bus master id.
    void send(const std::string& channel, Token tok);

    /// Charge `nominal` execution time through OsCore::time_wait (scaled by
    /// the hosting PE's speed). Zero is a no-op, not a syscall.
    void exec(SimTime nominal);

    /// Report one end-to-end latency sample to the system (checked against
    /// AppSpec::latency_deadline, aggregated into SystemMetrics quantiles).
    void record_latency(SimTime sample);

    [[nodiscard]] SimTime now() const;
    [[nodiscard]] std::uint64_t job() const { return job_; }
    [[nodiscard]] const TaskSpec& spec() const { return *spec_; }
    [[nodiscard]] rtos::OsCore& os();
    [[nodiscard]] sim::Kernel& kernel();
    [[nodiscard]] const std::string& pe_name() const;

private:
    friend class System;
    TaskCtx(System& sys, const TaskSpec& spec, arch::ProcessingElement& pe)
        : sys_(&sys), spec_(&spec), pe_(&pe) {}

    /// Span bookkeeping for one job: open the Job span (remembering its id as
    /// the parent for this job's Recv/Send/Latency spans), close it, and
    /// track the tokens received so record_latency can correlate the sample
    /// with the token whose birth anchors it. All no-ops when spans are off.
    void begin_job();
    void end_job();

    System* sys_;
    const TaskSpec* spec_;
    arch::ProcessingElement* pe_;
    std::uint64_t job_ = 0;
    std::uint64_t span_job_ = 0;        ///< open Job span id (0 = none)
    std::vector<Token> span_tokens_;    ///< tokens recv'd during this job
};

/// A task body, called once per job. The default (no set_behavior call)
/// receives one token from every input channel, charges exec_cost, and sends
/// Token{job, birth} on every output channel; sink tasks instead report
/// now - born of their first input as an end-to-end latency sample.
using Behavior = std::function<void(TaskCtx&)>;

/// Elaboration knobs orthogonal to the specs.
struct SystemOptions {
    /// Base RtosConfig for every PE; the PeSpec overrides cpu_name, policy,
    /// context_switch_overhead, and speed_num/speed_den per PE. Quantum,
    /// preemption granularity, and miss policy pass through.
    rtos::RtosConfig base_rtos{};
    /// Trace recorder for every PE (one trace::RtosTraceAdapter per core).
    trace::TraceRecorder* tracer = nullptr;
    /// Per-PE hook run right after each OsCore is constructed (observers,
    /// fault hooks, analytics), before any task exists.
    std::function<void(rtos::OsCore&)> on_os;
    /// Span sink for token-level causal tracing (docs/span-tracing.md). When
    /// set, every PE gets an obs::SpanTracer, every bus-routed channel a
    /// BusXfer post hook, and TaskCtx emits Job/Recv/Send/Latency spans.
    /// Null (the default) records nothing and costs nothing.
    obs::SpanSink* spans = nullptr;
};

struct PeMetrics {
    std::string name;
    SimTime busy{};
    std::uint64_t context_switches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t deadline_misses = 0;
};

struct BusMetrics {
    std::string name;
    std::uint64_t transfers = 0;
    std::uint64_t bytes = 0;
    SimTime busy{};
    SimTime arbitration_wait{};
};

/// Everything a sweep ranks candidates by, measured from one run().
struct SystemMetrics {
    SimTime sim_duration{};
    std::uint64_t jobs_completed = 0;        ///< behavior invocations finished
    std::uint64_t task_deadline_misses = 0;  ///< summed RTOS-level misses
    std::uint64_t latency_samples = 0;
    std::uint64_t latency_misses = 0;  ///< samples above AppSpec::latency_deadline
    SimTime latency_p50{};             ///< nearest-rank percentiles over samples
    SimTime latency_p95{};
    SimTime latency_max{};
    std::vector<PeMetrics> pes;
    std::vector<BusMetrics> buses;
};

/// An elaborated system: owns the kernel, PEs, buses, and channel machinery.
/// Lifecycle: construct (validates the triple), set_behavior() for tasks
/// needing real bodies, run() once, read metrics(). Single-shot by design —
/// a sweep elaborates a fresh System per candidate, which is what keeps
/// candidates independent and the sweep embarrassingly parallel.
class System {
public:
    System(AppSpec app, PlatformSpec platform, MappingSpec mapping,
           SystemOptions opts = {});
    ~System();

    System(const System&) = delete;
    System& operator=(const System&) = delete;

    /// Replace the default dataflow body of `task`. Call before run().
    void set_behavior(const std::string& task, Behavior b);

    /// Elaborate tasks + stimuli and simulate: to completion when `horizon`
    /// is zero, else up to `horizon`.
    void run(SimTime horizon = {});

    [[nodiscard]] SystemMetrics metrics() const;

    [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
    [[nodiscard]] arch::ProcessingElement* pe(const std::string& name);
    [[nodiscard]] arch::Bus* bus(const std::string& name);
    [[nodiscard]] const AppSpec& app() const { return app_; }
    [[nodiscard]] const PlatformSpec& platform() const { return platform_; }
    [[nodiscard]] const MappingSpec& mapping() const { return mapping_; }
    [[nodiscard]] const std::vector<SimTime>& latencies() const { return latencies_; }

    /// TaskCtx::record_latency target; callable directly by raw-process
    /// instrumentation as well.
    void record_latency(SimTime sample) { latencies_.push_back(sample); }

    /// The span sink wired at elaboration (null when tracing is off).
    [[nodiscard]] obs::SpanSink* spans() const { return opts_.spans; }

private:
    friend class TaskCtx;

    struct ChannelImpl;

    [[nodiscard]] ChannelImpl* channel_impl(const std::string& name);
    [[nodiscard]] arch::ProcessingElement* pe_of(const std::string& task);
    [[nodiscard]] int master_of(const arch::ProcessingElement* pe) const;
    void spawn_stimuli();
    void spawn_tasks();
    void default_behavior(TaskCtx& ctx);

    AppSpec app_;
    PlatformSpec platform_;
    MappingSpec mapping_;
    SystemOptions opts_;
    sim::Kernel kernel_;
    /// Trace adapters and span tracers, declared before pes_ so they outlive
    /// the cores (~OsCore raises on_core_teardown; span tracers close spans).
    std::vector<std::unique_ptr<rtos::OsObserver>> observers_;
    std::vector<std::unique_ptr<arch::ProcessingElement>> pes_;
    std::vector<std::unique_ptr<arch::Bus>> buses_;
    std::vector<std::unique_ptr<ChannelImpl>> channels_;
    std::vector<std::pair<std::string, Behavior>> behaviors_;
    std::vector<SimTime> latencies_;
    std::uint64_t jobs_done_ = 0;
    bool ran_ = false;
};

}  // namespace slm::sys
