// Trace recording benchmark: trace::TraceRecorder (interned-string
// fixed-width records) fed a synthetic scheduling trace. Times its own loop
// and emits BENCH_trace.json so the per-record cost is tracked over time.
//
// The workload mirrors what an OsCore emits: a fixed cast of tasks whose
// names are hierarchical dotted paths (several beyond small-string-
// optimization length, as in real models — "vocoder.codec.encoder_task"),
// cycling through task-state, context-switch, IRQ, and channel records with
// nondecreasing timestamps.
//
// Usage: bench_trace [--smoke] [--out FILE]
//   --smoke   tiny iteration counts for CI
//   --out     output path (default: BENCH_trace.json in the CWD)

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "trace/trace.hpp"

using namespace slm;

namespace {

struct Measurement {
    double ns_per_item = 0.0;
    double items_per_sec = 0.0;
    std::uint64_t items = 0;
};

Measurement finish(std::uint64_t items, std::chrono::steady_clock::time_point t0) {
    const double ns =
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
            .count();
    return {ns / static_cast<double>(items), 1e9 * static_cast<double>(items) / ns, items};
}

/// The task/CPU/state cast. Long-lived std::strings, exactly like the names
/// owned by TCBs and RtosConfig — producers pass string_views of these.
struct Cast {
    std::vector<std::string> tasks;
    std::vector<std::string> cpus;
    std::vector<std::string> states;
    std::vector<std::string> irqs;
    std::vector<std::string> channels;

    Cast() {
        const char* roots[] = {"vocoder.codec", "vocoder.io", "radio.stack",
                               "control.loop"};
        const char* leaves[] = {"driver_task", "encoder_task", "decoder_task",
                                "monitor_task"};
        for (const char* r : roots) {
            for (const char* l : leaves) {
                tasks.push_back(std::string(r) + "." + l);
            }
        }
        cpus = {"DSP0", "DSP1"};
        states = {"Ready", "Running", "WaitingEvent", "WaitingPeriod"};
        irqs = {"audio_subframe_irq", "sys_bus_rx_irq"};
        channels = {"frame_q", "bits_q", "sub_sem.evt"};
    }
};

/// Feed `records` trace records into `sink` and return the recording rate.
/// The event mix per 8-record block: 4 task states, 2 context switches, one
/// IRQ, one channel op — roughly what an RTOS-model run produces.
Measurement bm_record(trace::TraceRecorder& sink, const Cast& cast,
                      std::uint64_t records) {
    const std::size_t task_mask = cast.tasks.size() - 1;  // 16 tasks
    std::uint64_t emitted = 0;
    std::uint64_t t_ns = 0;
    std::size_t cur = 0;
    const auto t0 = std::chrono::steady_clock::now();
    while (emitted < records) {
        const std::size_t next = (cur + 1) & task_mask;
        const std::string& cpu = cast.cpus[cur & 1];
        t_ns += 250;
        const SimTime t{t_ns};
        sink.task_state(t, cpu, cast.tasks[cur], cast.states[2 + (cur & 1)]);
        sink.task_state(t, cpu, cast.tasks[next], cast.states[0]);
        sink.context_switch(t, cpu, cast.tasks[next], cast.tasks[cur]);
        sink.task_state(t, cpu, cast.tasks[next], cast.states[1]);
        emitted += 4;
        if ((cur & 3) == 0) {
            sink.irq(t, cpu, cast.irqs[(cur >> 2) & 1]);
            ++emitted;
        }
        if ((cur & 3) == 2) {
            sink.channel_op(t, cast.channels[cur & 1], "send");
            sink.context_switch(t, cpu, cast.tasks[cur], cast.tasks[next]);
            sink.task_state(t, cpu, cast.tasks[cur], cast.states[1]);
            emitted += 3;
        }
        cur = next;
    }
    return finish(emitted, t0);
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path = "BENCH_trace.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: bench_trace [--smoke] [--out FILE]\n");
            return 2;
        }
    }

    const std::uint64_t records = smoke ? 200'000 : 8'000'000;
    const int reps = smoke ? 1 : 3;  // best-of to damp allocator noise
    Cast cast;

    Measurement rec_m{};
    std::size_t interned = 0;
    for (int r = 0; r < reps; ++r) {
        trace::TraceRecorder rec;
        const Measurement m = bm_record(rec, cast, records);
        if (r == 0 || m.items_per_sec > rec_m.items_per_sec) {
            rec_m = m;
        }
        if (rec.size() != m.items) {
            std::fprintf(stderr, "bench_trace: recorder lost records\n");
            return 1;
        }
        interned = rec.string_count();
    }

    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::perror("bench_trace: fopen");
        return 1;
    }
    std::fprintf(f, "{\n  \"schema\": \"slm-bench-trace-v2\",\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"records\": %llu,\n",
                 static_cast<unsigned long long>(rec_m.items));
    std::fprintf(f, "  \"benchmarks\": {\n");
    std::fprintf(f,
                 "    \"BM_TraceRecorderRecord\": {\"unit\": \"record\", \"ns_per_item\": "
                 "%.2f, \"items_per_sec\": %.0f, \"items\": %llu},\n",
                 rec_m.ns_per_item, rec_m.items_per_sec,
                 static_cast<unsigned long long>(rec_m.items));
    std::fprintf(f, "    \"interned_strings\": %zu\n", interned);
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);

    std::printf("trace record     recorder  %10.1f ns/rec %14.0f rec/s\n",
                rec_m.ns_per_item, rec_m.items_per_sec);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
