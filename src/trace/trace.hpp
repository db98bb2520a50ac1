#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "rtos/core.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "trace/intern.hpp"

namespace slm::trace {

/// What a trace record describes.
enum class RecordKind : std::uint32_t {
    TaskState,      ///< actor changed scheduling state (detail = new state name)
    ContextSwitch,  ///< CPU switched tasks (actor = incoming, detail = outgoing)
    Irq,            ///< interrupt occurred (actor = irq name)
    ExecBegin,      ///< actor started a computation span
    ExecEnd,        ///< actor finished a computation span
    ChannelOp,      ///< channel activity (actor = channel, detail = op)
    Marker,         ///< free-form annotation (detail = text)
};

[[nodiscard]] const char* to_string(RecordKind k);

/// Escape a string for embedding in a JSON string literal (backslash, quote,
/// and control characters). Shared by the Chrome-trace exporter and the
/// metrics JSON exporter (src/obs/metrics.cpp) so every JSON we emit agrees
/// on escaping.
[[nodiscard]] std::string json_escape(std::string_view s);

/// One fixed-width trace record; every string is an id into the recorder's
/// string table (TraceRecorder::str). `cpu` names the resource (PE) the
/// record belongs to — id 0, the empty string, for records not bound to a
/// processor. `actor` and `detail` carry the kind-specific payload listed on
/// RecordKind.
struct Record {
    std::uint64_t t_ns;
    RecordKind kind;
    std::uint32_t cpu;
    std::uint32_t actor;
    std::uint32_t detail;
};
static_assert(sizeof(Record) == 24);

/// A half-open interval [begin, end) during which `actor` was executing.
struct Interval {
    SimTime begin;
    SimTime end;
    std::string actor;

    friend bool operator==(const Interval&, const Interval&) = default;
};

/// Collects timestamped scheduling records from models (explicit
/// ExecBegin/ExecEnd spans in specification models, task-state changes
/// emitted by the RTOS model) and derives per-actor execution intervals,
/// Gantt charts, and export formats.
///
/// Records are fixed-width 24-byte Records over an interned string table
/// (StringTable + RecordLog, the machinery shared with obs::SpanRecorder):
/// repeat names — the same tasks, CPUs and state names over and over — hit a
/// direct-mapped cache and cost a size check plus memcmp, no allocation.
/// An empty recorder allocates nothing; recorders are move-only. Recording
/// is append-only; all analysis walks the records on demand and compares
/// ids, not strings.
///
/// **Ordering contract:** records must arrive in nondecreasing time order.
/// Kernel- and RTOS-emitted records satisfy it by construction (timestamps
/// are kernel.now(), which never decreases); hand-recorded markers must take
/// care. Every build checks the contract with SLM_ASSERT: an out-of-order
/// record fails the assertion (the installed sim::set_assert_handler runs,
/// by default an abort) instead of silently corrupting the derived views.
///
/// The binary file format (save()/load()) is documented in
/// docs/observability.md: "SLTB" magic, version, string table, then packed
/// little-endian records.
class TraceRecorder {
public:
    // ---- recording ----
    void exec_begin(SimTime t, std::string_view cpu, std::string_view actor);
    void exec_end(SimTime t, std::string_view cpu, std::string_view actor);
    void task_state(SimTime t, std::string_view cpu, std::string_view actor,
                    std::string_view state);
    void context_switch(SimTime t, std::string_view cpu, std::string_view to,
                        std::string_view from);
    void irq(SimTime t, std::string_view cpu, std::string_view irq_name);
    void channel_op(SimTime t, std::string_view channel, std::string_view op);
    void marker(SimTime t, std::string_view text);

    void clear();

    // ---- raw access ----
    [[nodiscard]] std::size_t size() const { return records_.size(); }
    [[nodiscard]] const Record& record(std::size_t i) const { return records_[i]; }
    /// The interned string for `id` (asserts on out-of-range ids).
    [[nodiscard]] const std::string& str(std::uint32_t id) const {
        return strings_.str(id);
    }
    [[nodiscard]] std::size_t string_count() const { return strings_.count(); }

    [[nodiscard]] std::size_t count(RecordKind k) const;
    [[nodiscard]] std::size_t context_switches(std::string_view cpu = {}) const;

    // ---- derived views ----

    /// Execution intervals of one actor, from ExecBegin/ExecEnd pairs and/or
    /// TaskState records entering/leaving the "Running" state. Open intervals
    /// at trace end are closed at the last record's timestamp.
    [[nodiscard]] std::vector<Interval> intervals(std::string_view actor) const;

    /// All distinct actors appearing in exec/task-state records, in order of
    /// first appearance.
    [[nodiscard]] std::vector<std::string> actors() const;

    /// Total time `actor` spent executing.
    [[nodiscard]] SimTime busy_time(std::string_view actor) const;

    /// True if any two execution intervals of different actors on `cpu`
    /// overlap — i.e. the serialization invariant of an RTOS model is violated.
    [[nodiscard]] bool has_concurrent_execution(std::string_view cpu) const;

    /// Timestamps of Irq records (optionally filtered by irq name).
    [[nodiscard]] std::vector<SimTime> irq_times(std::string_view name = {}) const;

    // ---- rendering / export ----

    /// ASCII Gantt chart: one row per actor, `width` time buckets across
    /// [t0, t1). A bucket is '#' if the actor executed during it. Interrupt
    /// times are marked on a footer row.
    [[nodiscard]] std::string render_gantt(SimTime t0, SimTime t1, int width = 72) const;

    /// Per-actor utilization summary over [t0, t1): busy time, share of the
    /// window, execution interval count, rendered as an aligned text table.
    [[nodiscard]] std::string utilization_report(SimTime t0, SimTime t1) const;

    /// CSV: t_ns,kind,cpu,actor,detail
    void write_csv(std::ostream& os) const;

    /// Value-change-dump with one wire per actor (1 = executing), viewable in
    /// GTKWave. Timescale 1 ns.
    void write_vcd(std::ostream& os) const;

    /// Chrome trace-event JSON (load in Perfetto / chrome://tracing): one
    /// lane per actor with complete ("X") events for execution intervals and
    /// instant events for IRQs. Timestamps in microseconds as the format
    /// requires. Actor and IRQ names are JSON-escaped via json_escape().
    void write_chrome_trace(std::ostream& os) const;

    // ---- binary file format ----

    /// Write the trace: magic "SLTB", version, string table, records.
    void save(std::ostream& os) const;
    /// Load a trace previously save()d, replacing this recorder's contents.
    /// Returns false (leaving the recorder cleared) on a malformed stream.
    [[nodiscard]] bool load(std::istream& is);

private:
    void push(SimTime t, RecordKind kind, std::uint32_t cpu, std::uint32_t actor,
              std::uint32_t detail);
    [[nodiscard]] bool read(std::istream& is);
    /// Ids of actors() in the same order.
    [[nodiscard]] std::vector<std::uint32_t> actor_ids() const;
    [[nodiscard]] std::vector<Interval> intervals_of(std::uint32_t actor) const;

    /// Records live in fixed-size chunks (RecordLog): appends never
    /// reallocate-and-copy. 64Ki records = 1.5 MiB per chunk.
    RecordLog<Record> records_;
    StringTable strings_;
};

/// Automatic tracing for *specification* models: attach as a kernel observer
/// and every process's `waitfor` delay steps are recorded as execution spans
/// (the delay-as-computation convention of spec models — paper Fig. 8(a)
/// shows exactly these spans). Processes blocked on events or joins record
/// nothing.
///
///     trace::TraceRecorder rec;
///     trace::SpecTraceAdapter adapter{kernel, rec, "PE0"};
///     kernel.add_observer(&adapter);
///
/// Use an explicit name filter to keep testbench/device processes out of the
/// trace. Not intended for RTOS-based models — attach an RtosTraceAdapter
/// to the OS core (rtos::OsCore, under any API personality) for richer
/// task-state records instead.
class SpecTraceAdapter final : public sim::KernelObserver {
public:
    SpecTraceAdapter(sim::Kernel& kernel, TraceRecorder& rec, std::string cpu = {})
        : kernel_(kernel), rec_(rec), cpu_(std::move(cpu)) {}

    /// Record only processes whose name satisfies `pred`.
    void set_filter(std::function<bool(const std::string&)> pred) {
        filter_ = std::move(pred);
    }

    void on_process_state(const sim::Process& p, sim::ProcState from,
                          sim::ProcState to) override {
        if (filter_ && !filter_(p.name())) {
            return;
        }
        if (to == sim::ProcState::WaitingTime) {
            rec_.exec_begin(kernel_.now(), cpu_, p.name());
        } else if (from == sim::ProcState::WaitingTime) {
            rec_.exec_end(kernel_.now(), cpu_, p.name());
        }
    }

private:
    sim::Kernel& kernel_;
    TraceRecorder& rec_;
    std::string cpu_;
    std::function<bool(const std::string&)> filter_;
};

/// Tracing for RTOS-based models: records every task-state change, context
/// switch and interrupt of one OS core (any API personality), with the core's
/// RtosConfig::cpu_name as `cpu`. Attach it before any other observer, right
/// after the core is built: `trace::RtosTraceAdapter tracer{os, rec};`. It
/// detaches in its destructor, or at on_core_teardown if the core dies first.
class RtosTraceAdapter final : public rtos::OsObserver {
public:
    RtosTraceAdapter(rtos::OsCore& os, TraceRecorder& rec) : os_(&os), rec_(rec) {
        os.add_observer(this);
    }
    ~RtosTraceAdapter() override {
        if (os_ != nullptr) {
            os_->remove_observer(this);
        }
    }
    RtosTraceAdapter(const RtosTraceAdapter&) = delete;
    RtosTraceAdapter& operator=(const RtosTraceAdapter&) = delete;

    void on_task_state(const rtos::Task& t, rtos::TaskState /*from*/, rtos::TaskState to,
                       SimTime now) override {
        rec_.task_state(now, os_->config().cpu_name, t.name(), rtos::to_string(to));
    }
    void on_context_switch(const rtos::Task& to, const rtos::Task* from,
                           SimTime now) override {
        rec_.context_switch(now, os_->config().cpu_name, to.name(),
                            from != nullptr ? std::string_view{from->name()} : "<idle>");
    }
    void on_isr(const std::string& irq_name, SimTime now) override {
        rec_.irq(now, os_->config().cpu_name, irq_name);
    }
    void on_core_teardown() override { os_ = nullptr; }

private:
    rtos::OsCore* os_;
    TraceRecorder& rec_;
};

}  // namespace slm::trace
