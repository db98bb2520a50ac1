#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rtos/core.hpp"
#include "rtos/os_channels.hpp"
#include "sim/channels.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"

namespace slm::arch {

/// Architecture-level modeling: processing elements hosting RTOS instances,
/// busses with arbitration and transfer delays, and interrupt plumbing — the
/// infrastructure of the paper's design-flow Fig. 1 and example Fig. 3.

/// Bus arbitration schemes.
enum class BusArbitration {
    Fifo,      ///< grant in request order
    Priority,  ///< grant the lowest master id first (smaller = higher priority)
    Tdma,      ///< time-division: master i may start only inside its slot
};

[[nodiscard]] const char* to_string(BusArbitration a);

/// A shared system bus. Transfers are arbitrated (one master at a time) and
/// take setup + per-byte time. The time is modeled through a caller-supplied
/// waiter so that a transfer executed by an RTOS task charges task execution
/// time (os.time_wait) while a raw SLDL process charges plain kernel time.
///
/// Arbitration among simultaneous requests is configurable; under TDMA the
/// requesting master additionally stalls until the start of its own slot
/// (slot index = master id, frame = slot_length x master_count).
class Bus {
public:
    struct Config {
        SimTime setup = nanoseconds(100);   ///< arbitration + address phase
        SimTime per_byte = nanoseconds(10); ///< data phase per byte
        BusArbitration arbitration = BusArbitration::Fifo;
        SimTime tdma_slot = microseconds(10);  ///< slot length (Tdma only)
        unsigned tdma_masters = 2;             ///< slots per TDMA frame
    };

    Bus(sim::Kernel& kernel, std::string name);
    Bus(sim::Kernel& kernel, std::string name, Config cfg);

    /// Duration of a `bytes`-sized transfer, excluding arbitration wait.
    [[nodiscard]] SimTime transfer_latency(std::size_t bytes) const;

    [[nodiscard]] SimTime setup_time() const { return cfg_.setup; }
    [[nodiscard]] SimTime per_byte_time() const { return cfg_.per_byte; }

    /// Hold the bus for one transfer, spending the latency via `waiter`.
    /// `master` identifies the requester for Priority/Tdma arbitration.
    void occupy(std::size_t bytes, const std::function<void(SimTime)>& waiter,
                int master = 0);

    /// Hold the bus for an explicit duration (building block for word-level
    /// bus-functional models where the per-beat time is computed externally).
    void occupy_for(SimTime duration, std::size_t bytes_accounted,
                    const std::function<void(SimTime)>& waiter, int master = 0);

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
    [[nodiscard]] std::uint64_t bytes_transferred() const { return bytes_; }
    [[nodiscard]] SimTime busy_time() const { return busy_; }
    /// Aggregate time masters spent waiting for a grant (contention metric).
    [[nodiscard]] SimTime arbitration_wait() const { return arb_wait_; }

private:
    struct Request {
        int master;
        std::uint64_t seq;
    };

    [[nodiscard]] bool is_chosen(const Request& r) const;
    [[nodiscard]] SimTime tdma_align_delay(int master) const;

    sim::Kernel& kernel_;
    std::string name_;
    Config cfg_;
    sim::Event grant_;
    std::vector<Request> waiters_;
    bool busy_flag_ = false;
    std::uint64_t seq_ = 0;
    std::uint64_t transfers_ = 0;
    std::uint64_t bytes_ = 0;
    SimTime busy_{};
    SimTime arb_wait_{};
};

/// An interrupt request line: edge-triggered, raised by a device/bus and
/// consumed by the ISR dispatcher of a ProcessingElement.
class InterruptLine {
public:
    InterruptLine(sim::Kernel& kernel, std::string name)
        : kernel_(kernel), evt_(kernel, name + ".irq"), name_(std::move(name)) {}

    /// Raise the interrupt (callable from any process context).
    void raise() {
        ++raised_;
        kernel_.notify(evt_);
    }

    [[nodiscard]] const std::string& name() const { return name_; }
    [[nodiscard]] std::uint64_t raise_count() const { return raised_; }
    [[nodiscard]] sim::Event& event() { return evt_; }

private:
    sim::Kernel& kernel_;
    sim::Event evt_;
    std::string name_;
    std::uint64_t raised_ = 0;
};

/// A typed point-to-point link over a shared bus: the sender occupies the bus
/// for the message size, deposits the payload into the receiver-side buffer,
/// and raises the receiver's interrupt line — the paper's "bus driver + ISR +
/// semaphore" structure in Fig. 3.
template <typename T>
class BusLink {
public:
    BusLink(sim::Kernel& kernel, Bus& bus, std::string name,
            std::size_t message_bytes = sizeof(T))
        : kernel_(kernel), bus_(bus), irq_(kernel, name), bytes_(message_bytes) {}

    /// Observation hook fired after each completed post() with the message
    /// and the transfer window [begin, end) — begin is taken before
    /// arbitration, so the window covers wait-for-grant plus the data phase.
    /// Purely observational (sys::System installs one per bus-routed channel
    /// to emit BusXfer spans when span tracing is on).
    using PostHook = std::function<void(const T&, SimTime begin, SimTime end, int master)>;
    void set_post_hook(PostHook hook) { post_hook_ = std::move(hook); }

    /// Sender side: transfer + interrupt. `waiter` spends the bus time in the
    /// sender's time domain (os.time_wait for tasks, kernel.waitfor for raw
    /// processes / external device models). `master` feeds the bus
    /// arbitration (Priority/Tdma schemes).
    void post(T msg, const std::function<void(SimTime)>& waiter, int master = 0) {
        const SimTime begin = kernel_.now();
        bus_.occupy(bytes_, waiter, master);
        if (post_hook_) {
            post_hook_(msg, begin, kernel_.now(), master);
        }
        rx_.push_back(std::move(msg));
        irq_.raise();
    }

    /// Receiver side (typically called from the ISR or the driver task).
    [[nodiscard]] bool try_fetch(T& out) {
        if (rx_.empty()) {
            return false;
        }
        out = std::move(rx_.front());
        rx_.pop_front();
        return true;
    }

    [[nodiscard]] InterruptLine& irq() { return irq_; }
    [[nodiscard]] std::size_t pending() const { return rx_.size(); }

private:
    sim::Kernel& kernel_;
    Bus& bus_;
    InterruptLine irq_;
    std::deque<T> rx_;
    std::size_t bytes_;
    PostHook post_hook_;
};

/// A prioritized interrupt controller with masking: multiple interrupt lines
/// funnel into one ISR dispatch context. When several interrupts are pending,
/// the highest-priority unmasked one is served first (smaller number = higher
/// priority, matching the RTOS convention); masked lines accumulate pending
/// counts and are served on unmask. ISRs execute in zero simulated time, as
/// in the paper's abstraction — their effect on tasks is what the RTOS model
/// captures (semaphore releases, event notifies, preemption flags).
class InterruptController {
public:
    InterruptController(sim::Kernel& kernel, rtos::OsCore& os, std::string name);

    /// Route `line` through this controller with the given IRQ priority.
    void attach(InterruptLine& line, int priority, std::function<void()> handler);

    /// Suppress dispatch for `line`; raises are latched while masked.
    void mask(const InterruptLine& line);
    /// Re-enable `line` and serve anything latched.
    void unmask(const InterruptLine& line);

    [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
    [[nodiscard]] std::uint64_t pending() const;

private:
    struct Source {
        InterruptLine* line;
        int priority;
        std::function<void()> handler;
        bool masked = false;
        std::uint64_t pending = 0;
    };

    [[nodiscard]] Source* best_pending();
    void ensure_dispatcher();

    sim::Kernel& kernel_;
    rtos::OsCore& os_;
    std::string name_;
    sim::Event pending_evt_;
    std::vector<std::unique_ptr<Source>> sources_;
    std::uint64_t dispatched_ = 0;
    bool dispatcher_spawned_ = false;
};

/// A processing element: one CPU with its own OS core instance, tasks, and
/// ISRs. After dynamic-scheduling refinement, every software PE of the system
/// model is an instance of this class (paper Fig. 1, architecture model).
///
/// The PE hosts the personality-neutral rtos::OsCore; task refinement
/// helpers (add_task / add_periodic_task) drive the core directly, and an
/// API personality can be layered over os() when refined software expects a
/// specific call set (e.g. rtos::itron::ItronOs{pe.os()}).
class ProcessingElement {
public:
    ProcessingElement(sim::Kernel& kernel, std::string name, rtos::RtosConfig cfg = {});

    [[nodiscard]] sim::Kernel& kernel() { return kernel_; }
    [[nodiscard]] rtos::OsCore& os() { return *os_; }
    [[nodiscard]] const std::string& name() const { return name_; }

    /// This PE's speed relative to a nominal speed-1 core, as configured via
    /// RtosConfig::speed_num/speed_den (a 2.0 DSP charges half the execution
    /// time for the same nominal work — see OsCore::scaled_exec).
    [[nodiscard]] double speed() const {
        return static_cast<double>(os_->config().speed_num) /
               static_cast<double>(os_->config().speed_den);
    }

    /// Create and spawn an aperiodic task following the paper's refinement
    /// pattern (task_activate / body / task_terminate).
    rtos::Task* add_task(const std::string& task_name, int priority,
                         std::function<void()> body);

    /// Create and spawn a periodic task running `body` each cycle; `cycles` = 0
    /// runs forever (until the simulation stops or the task is killed).
    rtos::Task* add_periodic_task(const std::string& task_name, int priority,
                                  SimTime period, SimTime wcet,
                                  std::function<void()> body, std::uint64_t cycles = 0,
                                  SimTime deadline = {});

    /// Register an interrupt service routine for `line`. The handler runs in
    /// ISR context (not a task): it may release OS channels / notify OS events
    /// but must not block or consume modeled time.
    void attach_isr(InterruptLine& line, std::function<void()> handler);

    /// Start the RTOS (call once, after all initial tasks are added).
    void start() { os_->start(); }
    void start(rtos::SchedPolicy p) { os_->start(p); }

private:
    sim::Kernel& kernel_;
    std::string name_;
    std::unique_ptr<rtos::OsCore> os_;
};

}  // namespace slm::arch
