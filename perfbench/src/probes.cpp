#include "probes.hpp"

#include <algorithm>

namespace perfbench {

void LayerTotals::add(const LayerTotals& o) {
    sim_s += o.sim_s;
    rtos_s += o.rtos_s;
    body_s += o.body_s;
    activations += o.activations;
    delta_cycles += o.delta_cycles;
    time_advances += o.time_advances;
    processes_created += o.processes_created;
    stacks_recycled += o.stacks_recycled;
    dispatches += o.dispatches;
    context_switches += o.context_switches;
    preemptions += o.preemptions;
    isr_entries += o.isr_entries;
    syscalls += o.syscalls;
    switch_ns.insert(switch_ns.end(), o.switch_ns.begin(), o.switch_ns.end());
}

namespace {

constexpr int kSim = 0;
constexpr int kRtos = 1;
constexpr int kBody = 2;

}  // namespace

void HostTimeline::advance(Mode next) {
    const Clock::time_point now = Clock::now();
    const double dt = started_ ? std::chrono::duration<double>(now - last_).count() : 0.0;
    started_ = true;
    last_ = now;
    switch (mode_) {
        case Mode::Kernel: bucket_s_[kSim] += dt; break;
        case Mode::Pending: pending_s_ += dt; break;
        case Mode::Body: bucket_s_[kBody] += dt; break;
        case Mode::Os: bucket_s_[kRtos] += dt; break;
    }
    mode_ = next;
    switch (next) {
        case Mode::Kernel: ++charged_[kSim]; break;
        case Mode::Pending: ++pending_charged_; break;
        case Mode::Body: ++charged_[kBody]; break;
        case Mode::Os: ++charged_[kRtos]; break;
    }
}

void HostTimeline::process_running() {
    advance(Mode::Pending);
}

void HostTimeline::process_stopped() {
    const bool pending = mode_ == Mode::Pending;
    advance(Mode::Kernel);
    if (pending) {
        // The process resumed and yielded again without a task dispatch in
        // between: a stimulus or a task body continuing after a kernel wait.
        bucket_s_[kBody] += pending_s_;
        charged_[kBody] += pending_charged_;
        pending_s_ = 0;
        pending_charged_ = 0;
    }
}

void HostTimeline::task_running(const void* task) {
    switch (mode_) {
        case Mode::Pending:
            // The resumed process was finishing a dispatch inside the RTOS.
            advance(Mode::Body);
            bucket_s_[kRtos] += pending_s_;
            charged_[kRtos] += pending_charged_;
            pending_s_ = 0;
            pending_charged_ = 0;
            break;
        case Mode::Os:
            advance(task == left_task_ ? Mode::Body : Mode::Os);
            break;
        default:
            advance(mode_);
            break;
    }
}

void HostTimeline::task_stopped(const void* task) {
    if (mode_ == Mode::Kernel) {
        advance(Mode::Kernel);
        return;
    }
    if (mode_ == Mode::Pending) {
        advance(Mode::Os);
        bucket_s_[kBody] += pending_s_;
        charged_[kBody] += pending_charged_;
        pending_s_ = 0;
        pending_charged_ = 0;
    } else {
        advance(Mode::Os);
    }
    left_task_ = task;
}

void HostTimeline::fill(LayerTotals& out) const {
    const auto net = [&](int b) {
        return std::max(0.0, bucket_s_[b] - 1e-9 * cost_ns_ * static_cast<double>(charged_[b]));
    };
    out.sim_s = net(kSim);
    out.rtos_s = net(kRtos);
    out.body_s = net(kBody) + pending_s_;
}

double calibrated_probe_cost_ns() {
    static const double cost = [] {
        constexpr int kRounds = 200'000;
        HostTimeline tl{0};
        int task = 0;
        const auto t0 = Clock::now();
        for (int i = 0; i < kRounds; ++i) {
            tl.process_running();
            tl.task_running(&task);
            tl.task_stopped(&task);
            tl.process_stopped();
        }
        return seconds_since(t0) * 1e9 / (4.0 * kRounds);
    }();
    return cost;
}

void LayerSink::add(const LayerTotals& t) {
    const std::lock_guard<std::mutex> lock(mu_);
    sum_.add(t);
}

LayerTotals LayerSink::get() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return sum_;
}

class SimProbes::KernelProbe final : public sim::KernelObserver {
public:
    explicit KernelProbe(SimProbes& owner) : owner_(owner) {}

    void on_process_state(const sim::Process& /*p*/, sim::ProcState from,
                          sim::ProcState to) override {
        if (owner_.closed_) {
            return;
        }
        if (to == sim::ProcState::Running) {
            owner_.tl_.process_running();
        } else if (from == sim::ProcState::Running) {
            owner_.tl_.process_stopped();
        }
    }

private:
    SimProbes& owner_;
};

class SimProbes::CoreProbe final : public rtos::OsObserver {
public:
    CoreProbe(SimProbes& owner, rtos::OsCore& os) : owner_(owner), os_(os) {}

    void on_task_state(const rtos::Task& t, rtos::TaskState from, rtos::TaskState to,
                       SimTime now) override {
        if (owner_.closed_) {
            return;
        }
        if (to == rtos::TaskState::Running) {
            owner_.tl_.task_running(&t);
            if (gap_open_ && now == gap_sim_) {
                owner_.counts_.switch_ns.push_back(
                    std::chrono::duration<double, std::nano>(owner_.tl_.last() - gap_host_)
                        .count());
            }
            gap_open_ = false;
        } else if (from == rtos::TaskState::Running) {
            owner_.tl_.task_stopped(&t);
            gap_open_ = true;
            gap_host_ = owner_.tl_.last();
            gap_sim_ = now;
        }
    }

    void on_core_teardown() override {
        const rtos::RtosStats& s = os_.stats();
        LayerTotals& c = owner_.counts_;
        c.dispatches += s.dispatches;
        c.context_switches += s.context_switches;
        c.preemptions += s.preemptions;
        c.isr_entries += s.isr_entries;
        c.syscalls += s.syscalls;
        owner_.close();
    }

private:
    SimProbes& owner_;
    rtos::OsCore& os_;
    bool gap_open_ = false;
    Clock::time_point gap_host_{};
    SimTime gap_sim_{};
};

SimProbes::SimProbes(LayerSink* sink)
    : tl_(calibrated_probe_cost_ns()), sink_(sink), kprobe_(std::make_unique<KernelProbe>(*this)) {}

SimProbes::~SimProbes() {
    close();
    if (sink_ != nullptr) {
        sink_->add(totals());
    }
}

void SimProbes::close() {
    if (closed_) {
        return;
    }
    closed_ = true;
    if (kernel_ != nullptr) {
        const sim::KernelStats& k = kernel_->stats();
        counts_.activations = k.process_activations;
        counts_.delta_cycles = k.delta_cycles;
        counts_.time_advances = k.time_advances;
        counts_.processes_created = k.processes_created;
        counts_.stacks_recycled = k.stacks_recycled;
        kernel_->remove_observer(kprobe_.get());
        kernel_ = nullptr;
    }
}

void SimProbes::attach(rtos::OsCore& os) {
    if (kernel_ == nullptr && !closed_) {
        kernel_ = &os.kernel();
        kernel_->add_observer(kprobe_.get());
    }
    cores_.push_back(std::make_unique<CoreProbe>(*this, os));
    os.add_observer(cores_.back().get());
}

LayerTotals SimProbes::totals() const {
    LayerTotals out = counts_;
    tl_.fill(out);
    return out;
}

}  // namespace perfbench
