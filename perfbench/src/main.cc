/**
 * @file
 * perfbench: the end-to-end benchmark program.
 *
 *   perfbench --workload feed|serve|mesh|table3 --seed N
 *             --seconds S --trace 0|1
 *
 * Untraced (--trace 0): runs the workload and prints its own rates
 * in readable lines, then, as the last line of stdout, one JSON
 * object with the end-to-end metrics. Traced (--trace 1): profiles
 * every layer, each on the workload that drives it (the requested
 * workload first), and prints the per-layer metrics instead. Either
 * way the JSON carries `correct`, `attempted` and `failed`.
 */

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hh"

using namespace perfbench;

namespace
{

struct WorkloadEntry
{
    const char *name;
    Outcome (*run)(const Options &, Clock::time_point, Checker &);
    void (*profile)(const Options &, double, std::vector<Metric> &,
                    Checker &);
};

const WorkloadEntry kWorkloads[] = {
    {"feed", runFeed, profileFeed},
    {"serve", runServe, profileServe},
    {"mesh", runMesh, profileMesh},
    {"table3", runTable3, profileTable3},
};

[[noreturn]] void
usage(const std::string &problem)
{
    std::cerr << "perfbench: " << problem << "\n"
              << "usage: perfbench --workload feed|serve|mesh|table3 "
                 "[--seed N] [--seconds S] [--trace 0|1]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed " + value);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(options.seconds > 0) ||
                options.seconds > 600)
                usage("bad --seconds " + value);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            options.trace = value == "1";
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (options.workload.empty())
        usage("--workload is required");
    return options;
}

/**
 * Shortest decimal that reads back as exactly @p value. A value that
 * was never measured (infinite) prints as 0; the run is then marked
 * not correct.
 */
std::string
number(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    auto result = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, result.ptr);
}

void
printResult(const Checker &check, const std::vector<Metric> &metrics)
{
    std::string json = std::string("{\"correct\": ") +
                       (check.correct() ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(check.attemptedOps()) +
                       ", \"failed\": " + std::to_string(check.failedOps()) +
                       ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
                number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::cout << json << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const Clock::time_point start = Clock::now();
    const Options options = parseArgs(argc, argv);

    const WorkloadEntry *selected = nullptr;
    for (const WorkloadEntry &entry : kWorkloads) {
        if (options.workload == entry.name)
            selected = &entry;
    }
    if (!selected)
        usage("unknown workload " + options.workload);

    Checker check;
    std::vector<Metric> metrics;
    if (!options.trace) {
        const Outcome out = selected->run(options, start, check);
        std::cout << options.workload << ": " << out.timedReps
                  << " timed repetitions in "
                  << number(secondsSince(start) - out.setupS)
                  << " s (checks included), each phase the sum of its "
                     "slices' best times\n";
        for (const Metric &m : out.named)
            std::cout << "  " << m.name << " = " << number(m.value) << " "
                      << m.unit << "\n";
        metrics = {
            {"setup_s", out.setupS, "s"},
            {"phase_a_s", out.phaseAS, "s"},
            {"phase_b_s", out.phaseBS, "s"},
            {"rib_bytes_per_route", out.ribBytesPerRoute, "B"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        // Every layer is profiled on the workload that drives it, so
        // a traced run reports the whole layer map whichever workload
        // was named; the named one goes first.
        const double budget = options.seconds / 4.0;
        selected->profile(options, budget, metrics, check);
        for (const WorkloadEntry &entry : kWorkloads) {
            if (&entry != selected)
                entry.profile(options, budget, metrics, check);
        }
        for (const Metric &m : metrics)
            std::cout << "  " << m.name << " = " << number(m.value) << " "
                      << m.unit << "\n";
    }
    for (const Metric &m : metrics)
        check.expect(std::isfinite(m.value), m.name + " was not measured");
    if (check.attemptedOps() == 0)
        check.expect(false, "no operation was attempted");
    printResult(check, metrics);
    return 0;
}
