// Quickstart: model three prioritized tasks on one abstract RTOS instance,
// exactly the refinement pattern of the paper (task_activate / body /
// task_terminate, time_wait for delays, RTOS events for synchronization).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "rtos/os_channels.hpp"
#include "rtos/rtos.hpp"
#include "sim/kernel.hpp"
#include "trace/trace.hpp"

using namespace slm;
using namespace slm::time_literals;

int main() {
    sim::Kernel kernel;
    trace::TraceRecorder trace;

    rtos::RtosConfig cfg;
    cfg.cpu_name = "CPU0";
    cfg.policy = rtos::SchedPolicy::Priority;
    rtos::RtosModel os{kernel, cfg};
    trace::RtosTraceAdapter tracer{os, trace};
    os.init();

    rtos::OsQueue<int> queue{os, 1, "work"};

    // A producer task (priority 2) and a consumer task (priority 1 = higher).
    rtos::Task* producer = os.task_create("producer", rtos::TaskType::Aperiodic,
                                          {}, {}, /*priority=*/2);
    rtos::Task* consumer = os.task_create("consumer", rtos::TaskType::Aperiodic,
                                          {}, {}, /*priority=*/1);
    rtos::Task* logger = os.task_create("logger", rtos::TaskType::Periodic,
                                        milliseconds(5), microseconds(200),
                                        /*priority=*/0);

    kernel.spawn("producer", [&] {
        os.task_activate(producer);
        for (int i = 0; i < 4; ++i) {
            os.time_wait(3_ms);  // model 3 ms of computation
            queue.send(i);       // wakes the higher-priority consumer
        }
        os.task_terminate();
    });

    kernel.spawn("consumer", [&] {
        os.task_activate(consumer);
        for (int i = 0; i < 4; ++i) {
            const int item = queue.receive();
            os.time_wait(1_ms);
            std::printf("[%8s] consumed item %d on %s\n",
                        kernel.now().to_string().c_str(), item,
                        os.config().cpu_name.c_str());
        }
        os.task_terminate();
    });

    kernel.spawn("logger", [&] {
        os.task_activate(logger);
        for (int i = 0; i < 3; ++i) {
            os.time_wait(200_us);  // periodic housekeeping
            os.task_endcycle();
        }
        os.task_terminate();
    });

    os.start();
    kernel.run();

    std::printf("\nsimulated time   : %s\n", kernel.now().to_string().c_str());
    std::printf("context switches : %llu\n",
                static_cast<unsigned long long>(os.stats().context_switches));
    std::printf("cpu busy time    : %s\n\n", os.busy_time().to_string().c_str());
    std::printf("%s\n", trace.render_gantt(SimTime::zero(), kernel.now(), 64).c_str());
    return 0;
}
