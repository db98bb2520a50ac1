// slm_perfbench: runs one benchmark workload and prints its metrics, the
// last line of standard output being the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage: slm_perfbench --workload table1|soak|sweep|explore --seed N
//                      --seconds S --trace 0|1
//        slm_perfbench --list-metrics

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

using namespace perfbench;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: slm_perfbench --workload table1|soak|sweep|explore --seed N "
                 "--seconds S --trace 0|1\n"
                 "       slm_perfbench --list-metrics\n");
    return 2;
}

bool parse_number(const char* s, double& out) {
    char* end = nullptr;
    out = std::strtod(s, &end);
    return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            for (const MetricSpec& m : kEndToEnd) {
                std::printf("end_to_end %s %s\n", m.name, m.unit);
            }
            for (const MetricSpec& m : kPerLayer) {
                std::printf("per_layer %s %s\n", m.name, m.unit);
            }
            return 0;
        }
        if (i + 1 >= argc) {
            return usage();
        }
        const char* value = argv[++i];
        double v = 0;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed" && parse_number(value, v) && v >= 0) {
            opt.seed = static_cast<std::uint64_t>(v);
        } else if (arg == "--seconds" && parse_number(value, v) && v > 0 && v <= 600) {
            opt.seconds = v;
        } else if (arg == "--trace" && (std::strcmp(value, "0") == 0 ||
                                        std::strcmp(value, "1") == 0)) {
            opt.trace = value[0] == '1';
        } else {
            return usage();
        }
    }

    void (*run)(RunContext&) = nullptr;
    if (opt.workload == "table1") {
        run = run_table1;
    } else if (opt.workload == "soak") {
        run = run_soak;
    } else if (opt.workload == "sweep") {
        run = run_sweep;
    } else if (opt.workload == "explore") {
        run = run_explore;
    } else {
        return usage();
    }

    RunContext ctx;
    ctx.opt = opt;
    std::printf("workload %s, seed %llu, %g s, trace %d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
    run(ctx);
    if (opt.trace) {
        // The span log goes next to the binary, inside the build tree.
        std::string path = argv[0];
        const std::size_t slash = path.rfind('/');
        path = (slash == std::string::npos ? std::string(".") : path.substr(0, slash)) +
               "/spans-" + opt.workload + ".jsonl";
        if (ctx.spans.write(path)) {
            std::printf("%zu layer-call spans written to %s\n", ctx.spans.size(), path.c_str());
        } else {
            std::printf("could not write %s\n", path.c_str());
        }
    }
    for (const std::string& f : ctx.ledger.failures()) {
        std::printf("FAILED: %s\n", f.c_str());
    }
    std::printf("%s\n", ctx.report.json(ctx.ledger).c_str());
    return 0;
}
