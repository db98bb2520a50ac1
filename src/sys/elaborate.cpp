#include "sys/elaborate.hpp"

#include <algorithm>
#include <utility>

#include "obs/span.hpp"
#include "sim/assert.hpp"

namespace slm::sys {

/// Transport machinery of one elaborated channel. Exactly one of {queue} or
/// {link, sem} is populated, mirroring the route.
struct System::ChannelImpl {
    const ChannelSpec* spec = nullptr;
    // Intra-PE route: a blocking OS queue on the shared core.
    std::unique_ptr<rtos::OsQueue<Token>> queue;
    // Bus route: sender-side link + receiver-side ISR-released semaphore.
    std::unique_ptr<arch::BusLink<Token>> link;
    std::unique_ptr<rtos::OsSemaphore> sem;
    arch::ProcessingElement* dst_pe = nullptr;
    int src_master = 0;
};

System::System(AppSpec app, PlatformSpec platform, MappingSpec mapping, SystemOptions opts)
    : app_(std::move(app)),
      platform_(std::move(platform)),
      mapping_(std::move(mapping)),
      opts_(std::move(opts)) {
    const std::vector<std::string> errors = validate(app_, platform_, mapping_);
    SLM_ASSERT(errors.empty(), errors.empty() ? "spec triple invalid"
                                              : errors.front().c_str());

    // PEs in platform order: the PE index doubles as the bus master id.
    for (const PeSpec& ps : platform_.pes) {
        rtos::RtosConfig cfg = opts_.base_rtos;
        cfg.cpu_name = ps.name;
        cfg.policy = ps.policy;
        cfg.context_switch_overhead = ps.context_switch_overhead;
        cfg.speed_num = ps.speed_num;
        cfg.speed_den = ps.speed_den;
        pes_.push_back(
            std::make_unique<arch::ProcessingElement>(kernel_, ps.name, std::move(cfg)));
        rtos::OsCore& os = pes_.back()->os();
        if (opts_.tracer != nullptr) {
            observers_.push_back(
                std::make_unique<trace::RtosTraceAdapter>(os, *opts_.tracer));
        }
        if (opts_.on_os) {
            opts_.on_os(os);
        }
        if (opts_.spans != nullptr) {
            observers_.push_back(std::make_unique<obs::SpanTracer>(os, *opts_.spans));
        }
    }
    for (const BusSpec& bs : platform_.buses) {
        arch::Bus::Config cfg;
        cfg.setup = bs.setup;
        cfg.per_byte = bs.per_byte;
        cfg.arbitration = bs.arbitration;
        buses_.push_back(std::make_unique<arch::Bus>(kernel_, bs.name, cfg));
    }

    // Channels in application order; each bus channel attaches its receiver
    // ISR here, before any task or stimulus process exists.
    for (const ChannelSpec& cs : app_.channels) {
        auto impl = std::make_unique<ChannelImpl>();
        impl->spec = &cs;
        impl->dst_pe = pe_of(cs.dst);
        const ChannelRoute* route = mapping_.route(cs.name);
        if (route->bus.empty()) {
            impl->queue = std::make_unique<rtos::OsQueue<Token>>(impl->dst_pe->os(),
                                                                 cs.capacity, cs.name);
        } else {
            arch::Bus* b = bus(route->bus);
            impl->link = std::make_unique<arch::BusLink<Token>>(kernel_, *b, cs.name,
                                                                cs.message_bytes);
            impl->sem = std::make_unique<rtos::OsSemaphore>(impl->dst_pe->os(), 0,
                                                            cs.name + ".rx");
            impl->src_master = cs.src.empty() ? 0 : master_of(pe_of(cs.src));
            rtos::OsSemaphore* sem = impl->sem.get();
            impl->dst_pe->attach_isr(impl->link->irq(), [sem] { sem->release(); });
            if (opts_.spans != nullptr) {
                // One BusXfer span per post, recorded after the fact with the
                // transfer window (arbitration wait + data phase).
                impl->link->set_post_hook(
                    [sink = opts_.spans, chan = cs.name, bus_name = b->name()](
                        const Token& t, SimTime begin, SimTime end, int /*master*/) {
                        sink->complete(begin, end, obs::SpanKind::BusXfer, {}, chan,
                                       bus_name, obs::TokenRef{t.id, t.born.ns()});
                    });
            }
        }
        channels_.push_back(std::move(impl));
    }
}

System::~System() = default;

void System::set_behavior(const std::string& task, Behavior b) {
    SLM_ASSERT(!ran_, "set_behavior() after run()");
    SLM_ASSERT(app_.task(task) != nullptr, "set_behavior() for unknown task");
    for (auto& [name, fn] : behaviors_) {
        if (name == task) {
            fn = std::move(b);
            return;
        }
    }
    behaviors_.emplace_back(task, std::move(b));
}

arch::ProcessingElement* System::pe(const std::string& name) {
    for (auto& p : pes_) {
        if (p->name() == name) {
            return p.get();
        }
    }
    return nullptr;
}

arch::Bus* System::bus(const std::string& name) {
    for (auto& b : buses_) {
        if (b->name() == name) {
            return b.get();
        }
    }
    return nullptr;
}

System::ChannelImpl* System::channel_impl(const std::string& name) {
    for (auto& c : channels_) {
        if (c->spec->name == name) {
            return c.get();
        }
    }
    return nullptr;
}

arch::ProcessingElement* System::pe_of(const std::string& task) {
    const TaskBinding* b = mapping_.binding(task);
    return b == nullptr ? nullptr : pe(b->pe);
}

int System::master_of(const arch::ProcessingElement* p) const {
    for (std::size_t i = 0; i < pes_.size(); ++i) {
        if (pes_[i].get() == p) {
            return static_cast<int>(i);
        }
    }
    return 0;
}

void System::spawn_stimuli() {
    // Stimuli are raw kernel processes (the environment has no RTOS): wait a
    // period, occupy the bus with the kernel's own waitfor, post, repeat.
    for (const StimulusSpec& s : app_.stimuli) {
        ChannelImpl* impl = channel_impl(s.channel);
        kernel_.spawn("stim." + s.name, [this, &s, impl, who = "stim." + s.name] {
            for (std::uint64_t i = 0; i < s.count; ++i) {
                kernel_.waitfor(s.period);
                const Token tok{i, kernel_.now()};
                std::uint64_t span = 0;
                if (opts_.spans != nullptr) {
                    // pe is empty: the environment has no PE; the custody
                    // walk classifies this stretch as Env.
                    span = opts_.spans->begin_span(
                        kernel_.now(), obs::SpanKind::Send, {}, s.channel, who,
                        obs::TokenRef{tok.id, tok.born.ns()});
                }
                impl->link->post(tok, [this](SimTime dt) { kernel_.waitfor(dt); });
                if (span != 0) {
                    opts_.spans->end_span(span, kernel_.now());
                }
            }
        });
    }
}

void System::default_behavior(TaskCtx& ctx) {
    const std::string& me = ctx.spec().name;
    Token first{};
    bool got = false;
    bool has_output = false;
    for (const ChannelSpec& cs : app_.channels) {
        if (cs.dst == me) {
            Token t = ctx.recv(cs.name);
            if (!got) {
                first = t;
                got = true;
            }
        }
    }
    ctx.exec(ctx.spec().exec_cost);
    for (const ChannelSpec& cs : app_.channels) {
        if (cs.src == me) {
            has_output = true;
            ctx.send(cs.name, Token{got ? first.id : ctx.job(),
                                    got ? first.born : ctx.now()});
        }
    }
    if (!has_output && got) {
        ctx.record_latency(ctx.now() - first.born);
    }
}

void System::spawn_tasks() {
    for (const TaskSpec& ts : app_.tasks) {
        const TaskBinding* binding = mapping_.binding(ts.name);
        arch::ProcessingElement* host = pe(binding->pe);
        Behavior behavior;
        for (auto& [name, fn] : behaviors_) {
            if (name == ts.name) {
                behavior = fn;
            }
        }
        if (!behavior) {
            behavior = [this](TaskCtx& ctx) { default_behavior(ctx); };
        }
        auto ctx = std::make_shared<TaskCtx>(TaskCtx{*this, ts, *host});
        auto job_body = [this, ctx, behavior = std::move(behavior)] {
            ctx->begin_job();
            behavior(*ctx);
            ctx->end_job();
            ++ctx->job_;
            ++jobs_done_;
        };
        if (ts.period.is_zero()) {
            // Data-driven: one aperiodic task iterating its job count.
            host->add_task(ts.name, binding->priority,
                           [job_body, jobs = ts.jobs] {
                               for (std::uint64_t j = 0; j < jobs; ++j) {
                                   job_body();
                               }
                           });
        } else {
            host->add_periodic_task(ts.name, binding->priority, ts.period,
                                    ts.exec_cost, job_body, ts.jobs, ts.deadline);
        }
    }
}

void System::run(SimTime horizon) {
    SLM_ASSERT(!ran_, "System::run() is single-shot");
    ran_ = true;
    spawn_stimuli();
    spawn_tasks();
    for (auto& p : pes_) {
        p->start();
    }
    if (horizon.is_zero()) {
        kernel_.run();
    } else {
        kernel_.run_until(horizon);
    }
}

SystemMetrics System::metrics() const {
    SystemMetrics m;
    m.sim_duration = kernel_.now();
    m.jobs_completed = jobs_done_;
    for (const auto& p : pes_) {
        const rtos::RtosStats& st = p->os().stats();
        m.task_deadline_misses += st.deadline_misses;
        m.pes.push_back(PeMetrics{p->name(), p->os().busy_time(), st.context_switches,
                                  st.preemptions, st.deadline_misses});
    }
    for (const auto& b : buses_) {
        m.buses.push_back(BusMetrics{b->name(), b->transfers(), b->bytes_transferred(),
                                     b->busy_time(), b->arbitration_wait()});
    }
    m.latency_samples = latencies_.size();
    if (!latencies_.empty()) {
        std::vector<SimTime> sorted = latencies_;
        std::sort(sorted.begin(), sorted.end());
        // Nearest-rank percentiles: ceil(p/100 * n) - 1.
        const auto rank = [&sorted](std::uint64_t pct) {
            const std::uint64_t n = sorted.size();
            const std::uint64_t r = (pct * n + 99) / 100;
            return sorted[r == 0 ? 0 : r - 1];
        };
        m.latency_p50 = rank(50);
        m.latency_p95 = rank(95);
        m.latency_max = sorted.back();
        if (!app_.latency_deadline.is_zero()) {
            for (const SimTime& s : latencies_) {
                if (app_.latency_deadline < s) {
                    ++m.latency_misses;
                }
            }
        }
    }
    return m;
}

// ---- TaskCtx ----

void TaskCtx::begin_job() {
    if (obs::SpanSink* sink = sys_->opts_.spans) {
        span_tokens_.clear();
        span_job_ = sink->begin_span(now(), obs::SpanKind::Job, pe_->name(),
                                     spec_->name);
    }
}

void TaskCtx::end_job() {
    if (span_job_ != 0) {
        sys_->opts_.spans->end_span(span_job_, now());
        span_job_ = 0;
        span_tokens_.clear();
    }
}

Token TaskCtx::recv(const std::string& channel) {
    System::ChannelImpl* impl = sys_->channel_impl(channel);
    SLM_ASSERT(impl != nullptr, "recv() on unknown channel");
    obs::SpanSink* sink = sys_->opts_.spans;
    std::uint64_t span = 0;
    if (sink != nullptr) {
        span = sink->begin_span(now(), obs::SpanKind::Recv, pe_->name(), channel,
                                spec_->name, {}, span_job_);
    }
    Token t{};
    if (impl->queue != nullptr) {
        t = impl->queue->receive();
    } else {
        impl->sem->acquire();
        const bool ok = impl->link->try_fetch(t);
        SLM_ASSERT(ok, "bus channel semaphore/link out of sync");
    }
    if (sink != nullptr) {
        // The token is known only now; close with it attached so the custody
        // walk can use this recv's end as a hop boundary.
        sink->set_token(span, obs::TokenRef{t.id, t.born.ns()});
        sink->end_span(span, now());
        span_tokens_.push_back(t);
    }
    return t;
}

void TaskCtx::send(const std::string& channel, Token tok) {
    System::ChannelImpl* impl = sys_->channel_impl(channel);
    SLM_ASSERT(impl != nullptr, "send() on unknown channel");
    obs::SpanSink* sink = sys_->opts_.spans;
    std::uint64_t span = 0;
    if (sink != nullptr) {
        span = sink->begin_span(now(), obs::SpanKind::Send, pe_->name(), channel,
                                spec_->name, obs::TokenRef{tok.id, tok.born.ns()},
                                span_job_);
    }
    if (impl->queue != nullptr) {
        impl->queue->send(tok);
    } else {
        rtos::OsCore& core = pe_->os();
        impl->link->post(tok, [&core](SimTime dt) { core.io_wait(dt); },
                         impl->src_master);
    }
    if (sink != nullptr) {
        sink->end_span(span, now());
    }
}

void TaskCtx::exec(SimTime nominal) {
    if (!nominal.is_zero()) {
        pe_->os().time_wait(nominal);
    }
}

void TaskCtx::record_latency(SimTime sample) {
    if (obs::SpanSink* sink = sys_->opts_.spans) {
        // Correlate the sample with the token whose birth anchors it: the
        // token received this job with born == now - sample (exact for the
        // default dataflow body and the vocoder, whose samples are
        // now - born). Fall back to the most recent token so even ad-hoc
        // samples keep a causal hook.
        obs::TokenRef ref{};
        const std::uint64_t anchor =
            now().ns() >= sample.ns() ? now().ns() - sample.ns() : 0;
        for (const Token& t : span_tokens_) {
            if (t.born.ns() == anchor) {
                ref = obs::TokenRef{t.id, t.born.ns()};
                break;
            }
        }
        if (!ref.valid() && !span_tokens_.empty()) {
            ref = obs::TokenRef{span_tokens_.back().id, span_tokens_.back().born.ns()};
        }
        sink->instant(now(), obs::SpanKind::Latency, pe_->name(), spec_->name, {}, ref,
                      span_job_, sample.ns());
    }
    sys_->record_latency(sample);
}

SimTime TaskCtx::now() const { return sys_->kernel_.now(); }

rtos::OsCore& TaskCtx::os() { return pe_->os(); }

sim::Kernel& TaskCtx::kernel() { return sys_->kernel_; }

const std::string& TaskCtx::pe_name() const { return pe_->name(); }

}  // namespace slm::sys
