/**
 * @file
 * Workload `table3`: the paper's 8 scenarios x 4 systems at
 * kPrefixes prefixes through core::BenchmarkRunner — the only
 * workload that runs the sim CPU model and the router's five-process
 * pipeline, the paper's own artefact.
 *
 * Phase A (phase_a_s) is the host time of the small-packet scenarios
 * (1, 3, 5, 7: one prefix per UPDATE, where per-message cost
 * dominates), phase B (phase_b_s) that of the large-packet ones
 * (2, 4, 6, 8); their sum is the time to reproduce Table III. Each
 * (system, scenario) run is one timing slice (SliceBest).
 */

#include <array>

#include "core/benchmark_runner.hh"
#include "core/paper_data.hh"
#include "core/scenario.hh"
#include "obs/observability.hh"
#include "router/system_profiles.hh"

#include "harness.hh"

namespace perfbench
{

using namespace bgpbench;

namespace
{

constexpr size_t kPrefixes = 4000;
constexpr size_t kSystems = 4;
constexpr size_t kScenarios = 8;
/** Wall time of one timed repetition on the reference host. */
constexpr double kNominalRepS = 2.9;

using TpsTable = std::array<std::array<double, kScenarios>, kSystems>;

/** Systems in Table III column order (paper::SystemIndex). */
std::array<router::SystemProfile, kSystems>
systems()
{
    return {router::pentium3Profile(), router::xeonProfile(),
            router::ixp2400Profile(), router::ciscoProfile()};
}

struct Table3Pass
{
    double smallS = 0.0;
    double largeS = 0.0;
    /** Host seconds of each run, [system][scenario - 1]. */
    TpsTable seconds{};
    TpsTable tps{};
    uint64_t timedOut = 0;
    double ribBytesPerRoute = 0.0;
};

Table3Pass
table3Pass(uint64_t seed, obs::RunObservability *obs, SpanLog *log)
{
    Table3Pass pass;
    size_t ribBytes = 0;
    size_t entries = 0;
    const auto profiles = systems();
    for (size_t sys = 0; sys < kSystems; ++sys) {
        const uint32_t spanName =
            log ? log->intern(std::string("core.system.") +
                              core::paper::systemNames[sys])
                : 0;
        ScopedSpan span(log, spanName);
        core::BenchmarkConfig config;
        config.prefixCount = kPrefixes;
        config.seed = seed;
        config.obs = obs;
        core::BenchmarkRunner runner(profiles[sys], config);
        for (const core::Scenario &scenario : core::allScenarios()) {
            const Clock::time_point t = Clock::now();
            const core::BenchmarkResult result = runner.run(scenario);
            const double seconds = secondsSince(t);
            (scenario.packetSize == core::PacketSize::Small ? pass.smallS
                                                            : pass.largeS) +=
                seconds;
            pass.seconds[sys][size_t(scenario.number - 1)] = seconds;
            pass.tps[sys][size_t(scenario.number - 1)] = result.measuredTps;
            pass.timedOut += result.timedOut;
            const bgp::BgpSpeaker &speaker = runner.router().speaker();
            ribBytes += speaker.ribMemoryBytes();
            entries += ribEntries(speaker);
        }
    }
    pass.ribBytesPerRoute = double(ribBytes) / double(entries);
    return pass;
}

/**
 * Every value inside its band around the paper's Table III, and the
 * orderings the paper shows that the model claims to reproduce.
 * Bands: x/÷1.25 for Pentium III, IXP2400 and Cisco, x/÷2 for the
 * Xeon, whose dual-core model has no cross-scenario cache effects
 * (EXPERIMENTS.md); for the same reason the paper's Xeon S3>S4 and
 * S7>S8 inversions are not checked.
 */
void
checkAgainstPaper(const TpsTable &tps, Checker &check)
{
    using namespace core::paper;
    for (size_t sys = 0; sys < kSystems; ++sys) {
        const double band = sys == Xeon ? 2.0 : 1.25;
        for (size_t s = 0; s < kScenarios; ++s) {
            const double paper = table3Tps[s][sys];
            const double measured = tps[sys][s];
            check.expect(measured >= paper / band && measured <= paper * band,
                         std::string(systemNames[sys]) + " scenario " +
                             std::to_string(s + 1) + ": " +
                             std::to_string(measured) +
                             " tps outside the paper band around " +
                             std::to_string(paper));
        }
    }
    for (size_t s = 0; s < kScenarios; ++s) {
        const std::string name = "scenario " + std::to_string(s + 1);
        check.expect(tps[Xeon][s] > tps[PentiumIII][s] &&
                         tps[PentiumIII][s] > tps[Ixp2400][s],
                     name + ": not Xeon > PentiumIII > IXP2400");
        if (s % 2 == 0)
            check.expect(tps[Cisco][s] < tps[Ixp2400][s],
                         name + ": Cisco not below IXP2400 on small packets");
    }
    for (size_t sys = 0; sys < kSystems; ++sys) {
        const std::string name = systemNames[sys];
        for (size_t s = 0; s < kScenarios; ++s) {
            if (s != 5)
                check.expect(tps[sys][5] > tps[sys][s],
                             name + ": scenario 6 is not the fastest");
        }
        for (size_t s = 0; s < kScenarios; s += 2) {
            if (sys == Xeon && (s == 2 || s == 6))
                continue;
            check.expect(tps[sys][s + 1] > tps[sys][s],
                         name + ": large packets not faster in scenario " +
                             std::to_string(s + 2));
        }
    }
}

} // namespace

Outcome
runTable3(const Options &options, Clock::time_point start, Checker &check)
{
    const Table3Pass warm = table3Pass(options.seed, nullptr, nullptr);

    Outcome out;
    out.setupS = secondsSince(start);
    SliceBest small, large;
    const int reps = repetitionsFor(options.seconds, kNominalRepS);
    out.timedReps = timedRepetitions(reps, [&](int rep) {
        const Table3Pass pass = table3Pass(options.seed, nullptr, nullptr);
        // Scenario n is small-packet for odd n, i.e. even index s.
        std::vector<double> smallRuns, largeRuns;
        for (size_t sys = 0; sys < kSystems; ++sys) {
            for (size_t s = 0; s < kScenarios; ++s)
                (s % 2 == 0 ? smallRuns : largeRuns)
                    .push_back(pass.seconds[sys][s]);
        }
        small.record(smallRuns);
        large.record(largeRuns);
        if (rep == 0) {
            checkAgainstPaper(pass.tps, check);
            out.ribBytesPerRoute = pass.ribBytesPerRoute;
        }
        check.expect(pass.tps == warm.tps,
                     "Table III values changed between repetitions");
        check.attempted(kSystems * kScenarios);
        check.failed(pass.timedOut);
    });
    out.phaseAS = small.total();
    out.phaseBS = large.total();
    out.named = {
        {"table3_s", out.phaseAS + out.phaseBS, "s"},
    };
    return out;
}

void
profileTable3(const Options &options, double budgetS,
              std::vector<Metric> &layers, Checker &check)
{
    const Table3Pass warm = table3Pass(options.seed, nullptr, nullptr);
    SpanLog log;
    double bestPlain = std::numeric_limits<double>::infinity();
    double bestTraced = std::numeric_limits<double>::infinity();
    const Clock::time_point start = Clock::now();
    for (int pair = 0; pair == 0 || secondsSince(start) < budgetS; ++pair) {
        const Table3Pass plain = table3Pass(options.seed, nullptr, nullptr);
        keepBest(bestPlain, plain.smallS + plain.largeS);
        log.clear();
        obs::RunObservability obs;
        const Table3Pass traced = table3Pass(options.seed, &obs, &log);
        keepBest(bestTraced, traced.smallS + traced.largeS);
        check.expect(traced.tps == warm.tps,
                     "attaching observability changed Table III");
        check.attempted(kSystems * kScenarios);
        check.failed(traced.timedOut);
    }
    for (const char *name : core::paper::systemNames)
        layers.push_back(
            {std::string("core.system_s.") + name,
             double(log.totals(std::string("core.system.") + name).totalNs) /
                 1e9,
             "s"});
    layers.push_back({"obs.trace_overhead_ratio.table3",
                      bestTraced / bestPlain, "ratio"});
}

} // namespace perfbench
