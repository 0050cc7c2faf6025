/**
 * @file
 * Workload `mesh`: the announce scenario on a kMeshNodes-node full
 * mesh through topo::TopologySim — many small speakers, the event
 * queue and the sync layer.
 *
 * Phase A (phase_a_s) runs the engine at 1 worker, which takes the
 * sequential path (no windows, barriers or stealing); phase B
 * (phase_b_s) runs it at kParallelJobs workers. A sync-layer change
 * should therefore move phase B only. Two workers are left out: that
 * setting measured the noisiest on the 4-vCPU host.
 *
 * The seed sets each link's latency (1 ms +-5%) and each node's
 * originated prefix; the shape, and so every BFS distance, is fixed.
 */

#include <set>

#include "obs/observability.hh"
#include "obs/views.hh"
#include "topo/topology_sim.hh"
#include "workload/rng.hh"

#include "harness.hh"
#include "reference.hh"

namespace perfbench
{

using namespace bgpbench;

namespace
{

/**
 * 48 rather than 64 nodes: a 64-node repetition takes ~6 s, so a run
 * could take its best of only two; at 48 nodes (1128 links) it takes
 * ~2.3 s and a run measures six or more.
 */
constexpr size_t kMeshNodes = 48;
constexpr size_t kParallelJobs = 4;
/** Wall time of one timed repetition on the reference host. */
constexpr double kNominalRepS = 2.3;
const sim::SimTime kLimitNs = sim::nsFromSec(600.0);
/**
 * The engine is driven to convergence in slices of this much virtual
 * time. Slice k ends at (k + 1) * kSliceNs in every repetition, so
 * each slice is the same simulated work each time (SliceBest).
 */
const sim::SimTime kSliceNs = sim::nsFromMs(50);

struct MeshInputs
{
    topo::Topology topology;
    /** The prefix node i originates. */
    std::vector<net::Prefix> prefixes;
};

MeshInputs
makeInputs(uint64_t seed)
{
    MeshInputs in;
    workload::Rng rng(seed ^ 0x3e5au);
    const topo::GenOptions options;
    for (size_t i = 0; i < kMeshNodes; ++i)
        in.topology.addNode(topo::Topology::defaultNode(i, options));
    for (size_t a = 0; a < kMeshNodes; ++a) {
        for (size_t b = a + 1; b < kMeshNodes; ++b) {
            const sim::SimTime latency =
                sim::nsFromMs(1) * 95 / 100 +
                sim::SimTime(rng.below(sim::nsFromMs(1) / 10 + 1));
            in.topology.addLink(a, b, latency, options.bandwidthMbps);
        }
    }
    std::set<uint32_t> used;
    while (in.prefixes.size() < kMeshNodes) {
        // A /24 inside 100.64.0.0/10.
        const uint32_t net = 0x64400000u | (uint32_t(rng.below(1u << 14)) << 8);
        if (used.insert(net).second)
            in.prefixes.push_back(net::Prefix(net::Ipv4Address(net), 24));
    }
    return in;
}

struct MeshRun
{
    double seconds = 0.0;
    std::vector<double> slices;
    bool converged = false;
    std::string report;
    uint64_t events = 0;
    uint64_t updatesSent = 0;
    uint64_t routesInstalled = 0;
    double ribBytesPerRoute = 0.0;
};

MeshRun
runOnce(const MeshInputs &in, size_t jobs, Checker *check,
        obs::RunObservability *obs, SpanLog *log)
{
    topo::TopologySimConfig config;
    config.jobs = jobs;
    config.obs = obs;
    topo::TopologySim sim(in.topology, config);

    MeshRun run;
    const uint32_t spanName =
        log ? log->intern(jobs == 1 ? "topo.converge.seq" : "topo.converge.par")
            : 0;
    sim::SimTime horizon = 0;
    auto converge = [&]() {
        while (horizon < kLimitNs) {
            horizon += kSliceNs;
            const Clock::time_point t = Clock::now();
            bool quiet;
            {
                ScopedSpan span(log, spanName);
                quiet = sim.runToConvergence(horizon);
            }
            run.slices.push_back(secondsSince(t));
            run.seconds += run.slices.back();
            if (quiet)
                return true;
        }
        return false;
    };
    const bool established = converge();
    sim.tracker().markPhaseStart(sim.now());
    const sim::SimTime at = sim.now();
    for (size_t node = 0; node < kMeshNodes; ++node)
        sim.originate(node, in.prefixes[node], at);
    run.converged = converge() && established;

    topo::ConvergenceReport report = sim.report("announce", "mesh");
    report.converged = run.converged && sim.locRibsConsistent();
    run.converged = report.converged;
    run.report = report.toJson();
    run.events = sim.simulator().eventsExecuted();

    size_t ribBytes = 0;
    size_t entries = 0;
    for (size_t node = 0; node < kMeshNodes; ++node) {
        const bgp::BgpSpeaker &speaker = sim.speaker(node);
        run.updatesSent += speaker.counters().updatesSent;
        run.routesInstalled += speaker.locRib().size();
        ribBytes += speaker.ribMemoryBytes();
        entries += ribEntries(speaker);
    }
    run.ribBytesPerRoute = double(ribBytes) / double(entries);

    if (check) {
        // Shortest AS paths win and nothing filters, so every node's
        // best path to each prefix is as long as the BFS distance to
        // its origin.
        size_t wrong = 0;
        for (size_t origin = 0; origin < kMeshNodes; ++origin) {
            const std::vector<int> hops = bfsHops(in.topology, origin);
            for (size_t node = 0; node < kMeshNodes; ++node) {
                const auto *entry =
                    sim.speaker(node).locRib().find(in.prefixes[origin]);
                if (!entry || referencePathLength(
                                  entry->best.attributes->asPath) !=
                                  hops[node])
                    ++wrong;
            }
        }
        check->expect(wrong == 0,
                      std::to_string(wrong) + " best paths at jobs " +
                          std::to_string(jobs) +
                          " differ in length from the BFS distance");
    }
    if (obs)
        sim.publishParallelMetrics(obs->metrics);
    return run;
}

/** Both engine settings once; checks that they agree. */
std::pair<MeshRun, MeshRun>
meshRep(const MeshInputs &in, Checker &check, bool deep,
        obs::RunObservability *obs, SpanLog *log)
{
    MeshRun seq = runOnce(in, 1, deep ? &check : nullptr, nullptr, log);
    MeshRun par = runOnce(in, kParallelJobs, deep ? &check : nullptr, obs, log);
    check.expect(seq.converged && par.converged,
                 "mesh did not converge at every worker count");
    check.expect(seq.report == par.report,
                 "mesh reports differ between 1 and " +
                     std::to_string(kParallelJobs) + " workers");
    const uint64_t routes = uint64_t(kMeshNodes) * kMeshNodes;
    check.attempted(2 * routes);
    for (const MeshRun *run : {&seq, &par}) {
        const uint64_t landed = run->converged ? run->routesInstalled : 0;
        check.failed(routes - std::min(routes, landed));
    }
    return {std::move(seq), std::move(par)};
}

} // namespace

Outcome
runMesh(const Options &options, Clock::time_point start, Checker &check)
{
    const MeshInputs in = makeInputs(options.seed);
    Checker warmup;
    meshRep(in, warmup, false, nullptr, nullptr);

    Outcome out;
    out.setupS = secondsSince(start);
    SliceBest sequential, parallel;
    const int reps = repetitionsFor(options.seconds, kNominalRepS);
    out.timedReps = timedRepetitions(reps, [&](int rep) {
        auto [seq, par] = meshRep(in, check, rep == 0, nullptr, nullptr);
        sequential.record(seq.slices);
        parallel.record(par.slices);
        if (rep == 0)
            out.ribBytesPerRoute = seq.ribBytesPerRoute;
    });
    out.phaseAS = sequential.total();
    out.phaseBS = parallel.total();
    out.named = {
        {"converge_seq_s", out.phaseAS, "s"},
        {"converge_par_s", out.phaseBS, "s"},
    };
    return out;
}

void
profileMesh(const Options &options, double budgetS,
            std::vector<Metric> &layers, Checker &check)
{
    const MeshInputs in = makeInputs(options.seed);
    Checker warmup;
    meshRep(in, warmup, false, nullptr, nullptr);

    SpanLog log;
    std::unique_ptr<obs::RunObservability> obs;
    std::pair<MeshRun, MeshRun> traced;
    double bestPlain = std::numeric_limits<double>::infinity();
    double bestTraced = std::numeric_limits<double>::infinity();
    const Clock::time_point start = Clock::now();
    for (int pair = 0; pair == 0 || secondsSince(start) < budgetS; ++pair) {
        auto plain = meshRep(in, check, false, nullptr, nullptr);
        keepBest(bestPlain, plain.first.seconds + plain.second.seconds);
        log.clear();
        obs = std::make_unique<obs::RunObservability>();
        traced = meshRep(in, check, pair == 0, obs.get(), &log);
        keepBest(bestTraced, traced.first.seconds + traced.second.seconds);
    }

    const obs::MetricRegistry &registry = obs->metrics;
    const double windows =
        double(registry.counterValue(obs::metric::parallelWindows));
    const double parNs = double(log.totals("topo.converge.par").totalNs);
    const double workers = registry.gaugeValue(obs::metric::parallelJobs);
    layers.push_back({"topo.windows", windows, "count"});
    layers.push_back(
        {"topo.mean_window_ns",
         double(registry.counterValue(obs::metric::topoWindowLenNs)) /
             std::max(1.0, windows),
         "ns"});
    layers.push_back(
        {"topo.barrier_wait_share",
         double(registry.counterValue(obs::metric::topoBarrierWaitNs)) /
             (workers * parNs),
         "ratio"});
    layers.push_back(
        {"topo.steals_per_window",
         double(registry.counterValue(obs::metric::topoStealCount)) /
             std::max(1.0, windows),
         "count"});
    layers.push_back(
        {"topo.edge_cut_ratio",
         registry.gaugeValue(obs::metric::parallelEdgeCutRatio), "ratio"});
    layers.push_back(
        {"topo.updates_sent", double(traced.first.updatesSent), "count"});
    layers.push_back(
        {"sim.events_executed", double(traced.first.events), "count"});
    layers.push_back({"sim.ns_per_event",
                      double(log.totals("topo.converge.seq").totalNs) /
                          double(traced.first.events),
                      "ns"});
    layers.push_back(
        {"obs.trace_overhead_ratio.mesh", bestTraced / bestPlain, "ratio"});
}

} // namespace perfbench
