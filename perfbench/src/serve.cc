/**
 * @file
 * Workload `serve`: the read side on a loaded table.
 *
 * Set-up loads a kServeRoutes-prefix table from two peers into one
 * BgpSpeaker (its onFibUpdate events filling a benchmark-owned
 * fib::ForwardingTable) and freezes the Loc-RIB into a RibSnapshot
 * through SnapshotPublisher. Phase A (phase_a_s): one QueryEngine
 * reader runs kQueries queries of the default lookup / best-path /
 * scan / peer-stats mix. Phase B (phase_b_s): fib::ForwardingEngine
 * forwards kPackets data packets addressed inside the table.
 */

#include <memory>
#include <unordered_map>

#include "bgp/message.hh"
#include "bgp/speaker.hh"
#include "fib/forwarding_engine.hh"
#include "fib/forwarding_table.hh"
#include "serve/publisher.hh"
#include "serve/query_engine.hh"
#include "workload/fullfeed.hh"
#include "workload/rng.hh"

#include "harness.hh"
#include "reference.hh"

namespace perfbench
{

using namespace bgpbench;

namespace
{

constexpr size_t kServePeers = 2;
constexpr size_t kServeRoutes = 200000;
constexpr uint64_t kQueries = 300000;
/** The queries run as this many engine runs, each a timing slice. */
constexpr uint64_t kQuerySlices = 6;
constexpr size_t kPackets = 300000;
/** Forwarding is traced one span per batch of this many packets. */
constexpr size_t kForwardBatch = 4096;
/** Addresses the linear longest-match reference checks. */
constexpr size_t kLookupSamples = 400;
/** Wall time of one timed repetition on the reference host. */
constexpr double kNominalRepS = 1.0;

class FibSink : public bgp::SpeakerEvents
{
  public:
    void
    onTransmit(bgp::PeerId, bgp::MessageType, net::WireSegmentPtr,
               size_t) override
    {}

    void
    onFibUpdate(const bgp::FibUpdate &update) override
    {
        if (update.isWithdraw())
            fib.remove(update.prefix);
        else
            fib.install(update.prefix,
                        fib::FibEntry{*update.nextHop, 0, update.extraHops});
    }

    fib::ForwardingTable fib;
};

/** The loaded table and everything generated against it. */
struct ServeState
{
    FibSink sink;
    std::unique_ptr<bgp::BgpSpeaker> speaker;
    serve::SnapshotPublisher publisher;
    /** Loaded segments per peer (kept for the reference decision). */
    std::vector<std::vector<net::WireSegmentPtr>> sent;
    /** Distinct prefixes, in the seeded popularity order. */
    std::vector<net::Prefix> targets;
    std::vector<net::DataPacket> packets;
    double snapshotBuildS = 0.0;
};

std::unique_ptr<ServeState>
setUp(uint64_t seed)
{
    auto state = std::make_unique<ServeState>();
    bgp::SpeakerConfig config;
    config.localAs = 65001;
    config.routerId = 1;
    config.localAddress = net::Ipv4Address(10, 0, 0, 1);
    state->speaker = std::make_unique<bgp::BgpSpeaker>(config, &state->sink);

    std::vector<std::vector<std::vector<net::WireSegmentPtr>>> chunks(
        kServePeers);
    state->sent.resize(kServePeers);
    for (size_t i = 0; i < kServePeers; ++i) {
        bgp::PeerConfig peer;
        peer.id = bgp::PeerId(i);
        peer.asn = bgp::AsNumber(64601 + i);
        peer.address = net::Ipv4Address(10, 1, uint8_t(i), 2);
        state->speaker->addPeer(peer);
        establishPeer(*state->speaker, peer.id, peer.asn,
                      bgp::RouterId(100 + i));

        workload::FullFeedConfig feed;
        feed.seed = seed;
        feed.routeCount = kServeRoutes;
        feed.feedAs = peer.asn;
        feed.nextHop = peer.address;
        workload::FullFeedGenerator generator(feed);
        std::vector<workload::StreamPacket> packets;
        while (!generator.done()) {
            packets.clear();
            generator.nextChunk(packets);
            chunks[i].emplace_back();
            for (auto &pkt : packets) {
                chunks[i].back().push_back(pkt.wire);
                state->sent[i].push_back(std::move(pkt.wire));
            }
        }
    }
    bgp::BgpSpeaker::TimeNs now = 0;
    for (size_t c = 0; c < chunks[0].size(); ++c) {
        for (size_t i = 0; i < kServePeers; ++i) {
            for (const auto &wire : chunks[i][c])
                state->speaker->receiveSegment(bgp::PeerId(i), wire, now);
            now += 1'000'000;
        }
    }

    const Clock::time_point t = Clock::now();
    state->publisher.onRibPublish(state->speaker->locRib(),
                                  state->speaker->ribVersion(), now);
    state->snapshotBuildS = secondsSince(t);

    for (const auto &wire : state->sent[0]) {
        bgp::DecodeError error;
        auto msg = bgp::decodeMessage(wire->bytes(), error);
        for (const auto &prefix : std::get<bgp::UpdateMessage>(*msg).nlri)
            state->targets.push_back(prefix);
    }
    workload::Rng rng(seed ^ 0x9a11e7u);
    for (size_t i = state->targets.size(); i > 1; --i)
        std::swap(state->targets[i - 1], state->targets[rng.below(i)]);

    // Data packets to random hosts inside random loaded prefixes.
    const uint32_t sizes[] = {64, 576, 1500};
    state->packets.reserve(kPackets);
    for (size_t i = 0; i < kPackets; ++i) {
        const net::Prefix &prefix =
            state->targets[rng.below(state->targets.size())];
        const uint32_t host =
            prefix.length() == 32
                ? 0
                : uint32_t(rng.next()) & ~net::maskForLength(
                                             prefix.length());
        state->packets.push_back(net::makeDataPacket(
            net::Ipv4Address(uint32_t(rng.next())),
            net::Ipv4Address(prefix.address().toUint32() | host),
            sizes[rng.below(3)], uint8_t(2 + rng.below(254))));
    }
    return state;
}

serve::QueryEngineConfig
queryConfig(uint64_t seed, uint64_t slice)
{
    serve::QueryEngineConfig config;
    config.readers = 1;
    config.queriesPerReader = kQueries / kQuerySlices;
    config.seed = seed * kQuerySlices + slice;
    return config;
}

/**
 * Sampled lookups against the linear longest-match reference: the
 * snapshot must return the covering prefix the scan finds, and the
 * FIB the next hop the reference decision picks between the peers.
 */
void
checkLookups(ServeState &state, uint64_t seed, Checker &check)
{
    const serve::RibSnapshotPtr snapshot = state.publisher.current();
    check.expect(snapshot->size() == state.targets.size() &&
                     state.speaker->locRib().size() == state.targets.size(),
                 "snapshot/Loc-RIB size differs from the loaded prefixes");
    check.expect(snapshot->verifyChecksum(), "snapshot checksum mismatch");

    workload::Rng rng(seed ^ 0x100c0u);
    std::vector<net::Ipv4Address> addrs;
    for (size_t i = 0; i < kLookupSamples; ++i) {
        if (i % 2 == 0) {
            addrs.push_back(net::Ipv4Address(uint32_t(rng.next())));
        } else {
            const net::Prefix &p =
                state.targets[rng.below(state.targets.size())];
            addrs.push_back(net::Ipv4Address(
                p.address().toUint32() |
                (uint32_t(rng.next()) & ~net::maskForLength(p.length()))));
        }
    }
    std::unordered_map<net::Prefix, std::vector<RefCandidate>> wanted;
    std::vector<long> matches;
    for (net::Ipv4Address addr : addrs) {
        matches.push_back(linearLongestMatch(state.targets, addr));
        if (matches.back() >= 0)
            wanted[state.targets[size_t(matches.back())]];
    }
    // RefCandidate points into the decoded attributes; keep them alive.
    std::vector<bgp::PathAttributesPtr> keep;
    for (size_t p = 0; p < kServePeers; ++p) {
        for (const auto &wire : state.sent[p]) {
            bgp::DecodeError error;
            auto msg = bgp::decodeMessage(wire->bytes(), error);
            const auto &update = std::get<bgp::UpdateMessage>(*msg);
            for (const auto &prefix : update.nlri) {
                auto it = wanted.find(prefix);
                if (it == wanted.end())
                    continue;
                keep.push_back(update.attributes);
                it->second.push_back(RefCandidate{
                    update.attributes.get(), bgp::PeerId(p),
                    bgp::RouterId(100 + p), true});
            }
        }
    }

    size_t mismatches = 0;
    for (size_t i = 0; i < addrs.size(); ++i) {
        const serve::SnapshotRoute *route = snapshot->lookup(addrs[i]);
        const fib::FibEntry *entry = state.sink.fib.lookup(addrs[i]);
        if (matches[i] < 0) {
            mismatches += route != nullptr || entry != nullptr;
            continue;
        }
        const net::Prefix &expected = state.targets[size_t(matches[i])];
        const auto &candidates = wanted.at(expected);
        const RefCandidate &best = candidates[referenceBest(candidates)];
        if (!route || route->prefix != expected || route->peer != best.peer ||
            !entry || entry->nextHop != best.attrs->nextHop)
            ++mismatches;
    }
    check.expect(mismatches == 0,
                 std::to_string(mismatches) + " of " +
                     std::to_string(addrs.size()) +
                     " sampled lookups differ from the linear scan");
}

struct RepResult
{
    double queryS = 0.0;
    double forwardS = 0.0;
    std::vector<double> querySlices;
    std::vector<double> forwardSlices;
    /** Per-class outcome of the last query slice. */
    serve::ServeReport report;
    uint64_t queries = 0;
    uint64_t answered = 0;
    uint64_t routesScanned = 0;
    uint64_t scans = 0;
    uint64_t nodesVisited = 0;
};

RepResult
serveRep(ServeState &state, uint64_t seed, Checker &check, SpanLog *log)
{
    RepResult r;
    const uint32_t queryName = log ? log->intern("serve.queries") : 0;
    for (uint64_t slice = 0; slice < kQuerySlices; ++slice) {
        serve::QueryEngine engine(state.publisher, state.targets,
                                  queryConfig(seed, slice));
        const Clock::time_point t = Clock::now();
        {
            ScopedSpan span(log, queryName);
            r.report = engine.runFixed();
        }
        r.querySlices.push_back(secondsSince(t));
        r.queryS += r.querySlices.back();
        r.queries += r.report.queries;
        r.routesScanned += r.report.routesScanned;
        for (const auto &cls : r.report.classes) {
            r.answered += cls.hits;
            if (cls.kind == workload::QueryKind::Scan)
                r.scans += cls.queries;
        }
    }
    check.expect(r.queries == kQueries,
                 "query engine ran " + std::to_string(r.queries) + " of " +
                     std::to_string(kQueries) + " queries");
    check.expect(r.answered == kQueries,
                 std::to_string(kQueries - std::min(kQueries, r.answered)) +
                     " queries were not answered");
    check.attempted(kQueries);
    check.failed(kQueries - std::min(kQueries, r.answered));

    std::vector<net::DataPacket> work = state.packets;
    fib::ForwardingEngine engine(&state.sink.fib);
    uint64_t forwarded = 0;
    const uint32_t spanName = log ? log->intern("fib.forward") : 0;
    for (size_t base = 0; base < work.size(); base += kForwardBatch) {
        const Clock::time_point t = Clock::now();
        {
            ScopedSpan span(log, spanName);
            const size_t end = std::min(work.size(), base + kForwardBatch);
            for (size_t i = base; i < end; ++i) {
                const fib::ForwardResult result = engine.process(work[i]);
                forwarded += result.forwarded;
                r.nodesVisited += uint64_t(result.lookupNodesVisited);
            }
        }
        r.forwardSlices.push_back(secondsSince(t));
        r.forwardS += r.forwardSlices.back();
    }

    size_t broken = 0;
    for (size_t i = 0; i < work.size(); ++i) {
        broken += !headerChecksumOk(work[i]) ||
                  work[i].header.ttl + 1 != state.packets[i].header.ttl;
    }
    check.expect(forwarded == work.size(),
                 std::to_string(work.size() - forwarded) +
                     " packets were not forwarded");
    check.expect(broken == 0, std::to_string(broken) +
                                  " forwarded packets lost their checksum "
                                  "or TTL decrement");
    check.attempted(work.size());
    check.failed(work.size() - forwarded);
    return r;
}

} // namespace

Outcome
runServe(const Options &options, Clock::time_point start, Checker &check)
{
    std::unique_ptr<ServeState> state = setUp(options.seed);
    Checker warmup;
    serveRep(*state, options.seed, warmup, nullptr);

    Outcome out;
    out.setupS = secondsSince(start);
    SliceBest queries, forwarding;
    const int reps = repetitionsFor(options.seconds, kNominalRepS);
    out.timedReps = timedRepetitions(reps, [&](int rep) {
        const RepResult r = serveRep(*state, options.seed, check, nullptr);
        queries.record(r.querySlices);
        forwarding.record(r.forwardSlices);
        if (rep == 0)
            checkLookups(*state, options.seed, check);
    });
    out.phaseAS = queries.total();
    out.phaseBS = forwarding.total();
    out.ribBytesPerRoute = double(state->speaker->ribMemoryBytes()) /
                           double(ribEntries(*state->speaker));
    out.named = {
        {"query_rate", double(kQueries) / out.phaseAS, "queries/s"},
        {"forward_rate", double(kPackets) / out.phaseBS, "packets/s"},
        {"snapshot_build_ms", state->snapshotBuildS * 1e3, "ms"},
    };
    return out;
}

void
profileServe(const Options &options, double budgetS,
             std::vector<Metric> &layers, Checker &check)
{
    std::unique_ptr<ServeState> state = setUp(options.seed);
    layers.push_back(
        {"serve.snapshot_build_ms", state->snapshotBuildS * 1e3, "ms"});
    Checker warmup;
    serveRep(*state, options.seed, warmup, nullptr);

    SpanLog log;
    RepResult traced;
    double bestPlain = std::numeric_limits<double>::infinity();
    double bestTraced = std::numeric_limits<double>::infinity();
    const Clock::time_point start = Clock::now();
    for (int pair = 0; pair == 0 || secondsSince(start) < budgetS; ++pair) {
        const RepResult plain = serveRep(*state, options.seed, check, nullptr);
        keepBest(bestPlain, plain.queryS + plain.forwardS);
        log.clear();
        traced = serveRep(*state, options.seed, check, &log);
        keepBest(bestTraced, traced.queryS + traced.forwardS);
    }

    const SpanLog::Totals forward = log.totals("fib.forward");
    layers.push_back({"fib.forward_ns_per_packet",
                      double(forward.totalNs) / double(kPackets), "ns"});
    layers.push_back({"fib.nodes_visited_per_lookup",
                      double(traced.nodesVisited) / double(kPackets),
                      "count"});
    for (const auto &cls : traced.report.classes) {
        layers.push_back({std::string("serve.query_p50_ns.") +
                              workload::queryKindName(cls.kind),
                          double(cls.latencyNs.p50), "ns"});
    }
    layers.push_back({"serve.routes_per_scan",
                      double(traced.routesScanned) /
                          double(std::max<uint64_t>(1, traced.scans)),
                      "count"});
    layers.push_back(
        {"obs.trace_overhead_ratio.serve", bestTraced / bestPlain, "ratio"});
}

} // namespace perfbench
