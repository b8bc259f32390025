/**
 * @file
 * Machine-readable bench output: the BENCH_*.json perf trajectory.
 *
 * Human-readable tables show a run's shape; the JSON emitter records it
 * for machines, so CI can diff today's numbers against a checked-in
 * baseline (tools/bench_gate.py) and the repo accumulates a perf
 * trajectory over time. Schema (`wave-bench-v1`, see docs/perf.md):
 *
 *     {
 *       "schema": "wave-bench-v1",
 *       "bench": "simcore",
 *       "metrics": [
 *         {"name": "events_per_sec", "value": 1.2e7, "unit": "1/s"},
 *         ...
 *       ]
 *     }
 *
 * Metric names are stable identifiers: the gate script and any plots
 * key on them, so renaming one is a breaking change to the trajectory.
 * `value` is always a double; `unit` is informational.
 */
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace wave::bench {

/** One named measurement inside a BENCH_*.json report. */
struct JsonMetric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Accumulates metrics and writes one wave-bench-v1 JSON file. */
class BenchJson {
  public:
    explicit BenchJson(std::string bench_name)
        : bench_name_(std::move(bench_name))
    {
    }

    void
    Add(std::string name, double value, std::string unit)
    {
        metrics_.push_back(
            JsonMetric{std::move(name), value, std::move(unit)});
    }

    /** Writes the report; returns false (and prints why) on failure. */
    bool
    WriteTo(const std::string& path) const
    {
        std::FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "bench_json: cannot open %s\n",
                         path.c_str());
            return false;
        }
        std::fprintf(f, "{\n  \"schema\": \"wave-bench-v1\",\n");
        std::fprintf(f, "  \"bench\": \"%s\",\n", bench_name_.c_str());
        std::fprintf(f, "  \"metrics\": [\n");
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            const JsonMetric& m = metrics_[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"value\": %.17g, "
                         "\"unit\": \"%s\"}%s\n",
                         m.name.c_str(), m.value, m.unit.c_str(),
                         i + 1 < metrics_.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("bench_json: wrote %s (%zu metrics)\n", path.c_str(),
                    metrics_.size());
        return true;
    }

  private:
    std::string bench_name_;
    std::vector<JsonMetric> metrics_;
};

/**
 * Parses `--json <path>` and `--quick` from argv (shared bench CLI).
 * Any other argument, `--json` without a path, or `--quick` without
 * `--json` (the reduced counts apply only to the JSON report) prints
 * the usage and exits with status 2, so a typo cannot silently select
 * the full run.
 */
struct JsonCliArgs {
    std::string json_path;  ///< empty => human-readable mode
    bool quick = false;     ///< reduced iteration counts for CI smoke

    static JsonCliArgs
    Parse(int argc, char** argv)
    {
        JsonCliArgs args;
        const auto usage = [argv](const char* why) {
            std::fprintf(stderr,
                         "%s: %s\n"
                         "usage: %s [--json <path> [--quick]]\n",
                         argv[0], why, argv[0]);
            std::exit(2);
        };
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--json" && i + 1 < argc) {
                args.json_path = argv[++i];
            } else if (arg == "--quick") {
                args.quick = true;
            } else {
                usage(("bad argument '" + arg + "'").c_str());
            }
        }
        if (args.quick && args.json_path.empty()) {
            usage("--quick applies only to the --json report");
        }
        return args;
    }
};

}  // namespace wave::bench
