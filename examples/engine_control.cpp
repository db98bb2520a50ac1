// An engine-control-unit style system model exercising the full RTOS-model
// feature set: periodic control tasks under RMS, a crank-shaft interrupt
// routed through the prioritized interrupt controller, a diagnostics task
// using task_delay (non-CPU-consuming sleep) and timeouts, and schedulability
// cross-checked with response-time analysis.
//
// Build & run:  ./build/examples/engine_control

#include <cstdio>
#include <vector>

#include "analysis/analysis.hpp"
#include "arch/arch.hpp"
#include "rtos/os_channels.hpp"
#include "sim/kernel.hpp"
#include "trace/trace.hpp"

using namespace slm;
using namespace slm::time_literals;

int main() {
    sim::Kernel kernel;
    trace::TraceRecorder trace;

    rtos::RtosConfig cfg;
    cfg.policy = rtos::SchedPolicy::Rms;
    cfg.preemption_granularity = 100_us;
    arch::ProcessingElement ecu{kernel, "ECU", cfg};
    rtos::OsCore& os = ecu.os();
    trace::RtosTraceAdapter tracer{os, trace};

    // ---- analytic check before simulating ----
    std::vector<analysis::PeriodicTaskSpec> specs = {
        {"fuel", 2_ms, 400_us, {}, 0},
        {"ignition", 4_ms, 900_us, {}, 0},
        {"lambda", 10_ms, 1500_us, {}, 0},
    };
    analysis::assign_rms_priorities(specs);
    std::printf("utilization %.3f (RMS bound %.3f), RTA schedulable: %s\n\n",
                analysis::utilization(specs), analysis::rms_utilization_bound(3),
                analysis::rta_schedulable(specs) ? "yes" : "no");

    // ---- periodic control loops (priorities from RMS ranks) ----
    const SimTime horizon = 50_ms;
    for (const auto& s : specs) {
        ecu.add_periodic_task(
            s.name, s.priority, s.period, s.wcet,
            [&os, wcet = s.wcet] { os.time_wait(wcet); },
            horizon.ns() / s.period.ns());
    }

    // ---- crank-shaft interrupt through the prioritized controller ----
    arch::InterruptController pic{kernel, os, "pic"};
    arch::InterruptLine crank{kernel, "crank"};
    arch::InterruptLine can_rx{kernel, "can_rx"};
    rtos::OsSemaphore crank_sem{os, 0, "crank_sem"};
    rtos::OsSemaphore can_sem{os, 0, "can_sem"};
    pic.attach(crank, 0, [&] { crank_sem.release(); });  // highest IRQ priority
    pic.attach(can_rx, 3, [&] { can_sem.release(); });

    int crank_events = 0;
    ecu.add_task("crank_sync", 0, [&] {
        // Sporadic: synchronize to each crank edge, tiny bounded work.
        while (crank_sem.acquire_for(20_ms)) {
            os.time_wait(50_us);
            ++crank_events;
        }
    });

    int can_frames = 0, can_timeouts = 0;
    ecu.add_task("can_service", 4, [&] {
        for (int i = 0; i < 10; ++i) {
            if (can_sem.acquire_for(6_ms)) {
                os.time_wait(200_us);
                ++can_frames;
            } else {
                ++can_timeouts;
            }
        }
    });

    // Diagnostics: wakes every 10 ms without burning CPU while asleep.
    int diag_rounds = 0;
    ecu.add_task("diag", 5, [&] {
        for (int i = 0; i < 5; ++i) {
            os.task_delay(10_ms);
            os.time_wait(300_us);
            ++diag_rounds;
        }
    });

    // Device models: crank at ~1.3 ms spacing, CAN frames sparser.
    kernel.spawn("engine", [&] {
        for (int i = 0; i < 38; ++i) {
            kernel.waitfor(1300_us);
            crank.raise();
        }
    });
    kernel.spawn("can_bus", [&] {
        for (int i = 0; i < 7; ++i) {
            kernel.waitfor(5_ms);
            can_rx.raise();
        }
    });

    ecu.start();
    kernel.run();

    std::printf("simulated %s of engine operation\n", kernel.now().to_string().c_str());
    std::printf("crank events serviced : %d\n", crank_events);
    std::printf("CAN frames / timeouts : %d / %d\n", can_frames, can_timeouts);
    std::printf("diagnostic rounds     : %d\n", diag_rounds);
    std::printf("context switches      : %llu, IRQs dispatched: %llu\n",
                static_cast<unsigned long long>(os.stats().context_switches),
                static_cast<unsigned long long>(pic.dispatched()));
    std::uint64_t misses = 0;
    for (const rtos::Task* t : os.tasks()) {
        misses += t->stats().deadline_misses;
    }
    std::printf("deadline misses       : %llu\n\n",
                static_cast<unsigned long long>(misses));
    std::printf("%s\n", trace.utilization_report(SimTime::zero(), kernel.now()).c_str());
    return 0;
}
