/**
 * @file
 * Workload `feed`: the paper's three phases on one BgpSpeaker, at
 * internet-like table shape — the write path.
 *
 * Phase 1 and 2 (phase_a_s): kFeedPeers eBGP peers stream an
 * overlapping FullFeedGenerator table (same prefixes, per-peer
 * paths) in packed UPDATEs, interleaved chunk by chunk; the speaker
 * re-advertises to every peer plus one downstream customer, and a
 * benchmark-owned fib::ForwardingTable applies its onFibUpdate
 * events. Phase 3 (phase_b_s): one more peer sends single-prefix
 * UPDATEs on the loaded table — better paths (each moves the FIB),
 * worse paths (no FIB change, as in Table I scenarios 5-8), then
 * withdrawals of both, which must restore the Phase 1 state exactly.
 */

#include <functional>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "bgp/attr_intern.hh"
#include "bgp/decision.hh"
#include "bgp/message.hh"
#include "bgp/speaker.hh"
#include "fib/forwarding_table.hh"
#include "net/wire_segment.hh"
#include "obs/metrics.hh"
#include "workload/fullfeed.hh"
#include "workload/rng.hh"

#include "harness.hh"
#include "reference.hh"

namespace perfbench
{

using namespace bgpbench;

namespace
{

constexpr size_t kFeedPeers = 12;
constexpr size_t kRoutesPerPeer = 20000;
/** Phase 3 prefixes per kind (better, worse). */
constexpr size_t kPhase3Prefixes = 4000;
/** AS_PATH length of the Phase 3 worse paths (feed paths are <= 10). */
constexpr size_t kWorsePathLength = 20;
/** Phase 3 UPDATEs per timing slice. */
constexpr size_t kPhase3Slice = 500;
/** Wall time of one timed repetition on the reference host. */
constexpr double kNominalRepS = 1.6;
/** Exported UPDATEs the encode replay re-encodes at most. */
constexpr size_t kExportCapture = 50000;

constexpr bgp::PeerId kDownstream = bgp::PeerId(kFeedPeers);
constexpr bgp::PeerId kUpdatePeer = bgp::PeerId(kFeedPeers + 1);
constexpr bgp::AsNumber kUpdatePeerAs = 64700;
const net::Ipv4Address kUpdatePeerAddress(10, 3, 0, 2);

bgp::AsNumber
feedAs(size_t peer)
{
    return bgp::AsNumber(64601 + peer);
}

net::Ipv4Address
feedAddress(size_t peer)
{
    return net::Ipv4Address(10, 1, uint8_t(peer), 2);
}

/** One inbound segment with the virtual time it is delivered at. */
struct Delivery
{
    bgp::PeerId peer;
    net::WireSegmentPtr wire;
    bgp::BgpSpeaker::TimeNs now;
};

struct FeedInputs
{
    /** Phase 1: all peers' chunks, round-robin interleaved. */
    std::vector<Delivery> phase1;
    /** Where each (chunk, peer) slice of phase1 begins. */
    std::vector<size_t> phase1Slices;
    /** Phase 3: better, worse, then withdrawals of both. */
    std::vector<Delivery> phase3;
    /** The distinct prefixes of the feed, in peer 0's packet order. */
    std::vector<net::Prefix> prefixes;
    uint64_t announcements = 0;
    double generationS = 0.0;
};

net::WireSegmentPtr
singlePrefixUpdate(const net::Prefix &prefix,
                   const bgp::PathAttributesPtr &attrs, bool withdraw)
{
    bgp::UpdateMessage update;
    if (withdraw) {
        update.withdrawnRoutes.push_back(prefix);
    } else {
        update.attributes = attrs;
        update.nlri.push_back(prefix);
    }
    return bgp::encodeSegment(update);
}

FeedInputs
makeInputs(uint64_t seed)
{
    FeedInputs in;
    const Clock::time_point start = Clock::now();
    std::vector<std::vector<std::vector<net::WireSegmentPtr>>> chunks(
        kFeedPeers);
    {
        std::vector<workload::FullFeedGenerator> generators;
        generators.reserve(kFeedPeers);
        for (size_t i = 0; i < kFeedPeers; ++i) {
            workload::FullFeedConfig feed;
            feed.seed = seed; // shared: every peer carries the same prefixes
            feed.routeCount = kRoutesPerPeer;
            feed.feedAs = feedAs(i);
            feed.nextHop = feedAddress(i);
            generators.emplace_back(feed);
        }
        std::vector<workload::StreamPacket> packets;
        for (size_t i = 0; i < kFeedPeers; ++i) {
            while (!generators[i].done()) {
                packets.clear();
                generators[i].nextChunk(packets);
                chunks[i].emplace_back();
                for (auto &pkt : packets)
                    chunks[i].back().push_back(std::move(pkt.wire));
            }
        }
        // The generators (and the attribute sets their path pools
        // keep interned) are gone before the speaker sees a byte.
    }
    bgp::BgpSpeaker::TimeNs now = 0;
    for (size_t c = 0; c < chunks[0].size(); ++c) {
        for (size_t i = 0; i < kFeedPeers; ++i) {
            in.phase1Slices.push_back(in.phase1.size());
            for (auto &wire : chunks[i][c])
                in.phase1.push_back(
                    Delivery{bgp::PeerId(i), std::move(wire), now});
            now += 1'000'000; // 1 ms of virtual time per chunk
        }
    }
    in.announcements = uint64_t(kRoutesPerPeer) * kFeedPeers;

    for (const Delivery &d : in.phase1) {
        if (d.peer != 0)
            continue;
        bgp::DecodeError error;
        auto msg = bgp::decodeMessage(d.wire->bytes(), error);
        for (const auto &prefix : std::get<bgp::UpdateMessage>(*msg).nlri)
            in.prefixes.push_back(prefix);
    }

    // Phase 3 targets: a seeded sample of distinct loaded prefixes.
    std::vector<size_t> order(in.prefixes.size());
    std::iota(order.begin(), order.end(), size_t(0));
    workload::Rng rng(seed ^ 0x5eed0f3a11u);
    for (size_t i = 0; i < 2 * kPhase3Prefixes; ++i)
        std::swap(order[i], order[i + rng.below(order.size() - i)]);

    bgp::PathAttributes better;
    better.asPath = bgp::AsPath::sequence({kUpdatePeerAs});
    better.nextHop = kUpdatePeerAddress;
    bgp::PathAttributes worse = better;
    worse.asPath = bgp::AsPath::sequence(
        std::vector<bgp::AsNumber>(kWorsePathLength, kUpdatePeerAs));
    const bgp::PathAttributesPtr kinds[2] = {
        bgp::makeAttributes(std::move(better)),
        bgp::makeAttributes(std::move(worse))};
    for (int withdraw = 0; withdraw < 2; ++withdraw) {
        for (size_t i = 0; i < 2 * kPhase3Prefixes; ++i) {
            now += 1000;
            in.phase3.push_back(Delivery{
                kUpdatePeer,
                singlePrefixUpdate(in.prefixes[order[i]],
                                   kinds[i / kPhase3Prefixes], withdraw),
                now});
        }
    }
    in.generationS = secondsSince(start);
    return in;
}

/** Event sink: the benchmark-owned FIB plus export accounting. */
class FeedSink : public bgp::SpeakerEvents
{
  public:
    void
    onTransmit(bgp::PeerId, bgp::MessageType type, net::WireSegmentPtr wire,
               size_t) override
    {
        ScopedSpan span(log, transmitSpan);
        txBytes += wire->size();
        if (capture && type == bgp::MessageType::Update &&
            capture->size() < kExportCapture &&
            (capture->empty() || capture->back() != wire))
            capture->push_back(std::move(wire));
    }

    void
    onFibUpdate(const bgp::FibUpdate &update) override
    {
        ScopedSpan span(log, installSpan);
        ++fibEvents;
        if (update.isWithdraw())
            fib.remove(update.prefix);
        else
            fib.install(update.prefix,
                        fib::FibEntry{*update.nextHop, 0, update.extraHops});
    }

    fib::ForwardingTable fib;
    uint64_t txBytes = 0;
    uint64_t fibEvents = 0;

    SpanLog *log = nullptr;
    uint32_t transmitSpan = 0;
    uint32_t installSpan = 0;
    std::vector<net::WireSegmentPtr> *capture = nullptr;
};

std::unique_ptr<bgp::BgpSpeaker>
makeSpeaker(FeedSink &sink)
{
    bgp::SpeakerConfig config;
    config.localAs = 65001;
    config.routerId = 1;
    config.localAddress = net::Ipv4Address(10, 0, 0, 1);
    auto speaker = std::make_unique<bgp::BgpSpeaker>(config, &sink);
    auto add = [&](bgp::PeerId id, bgp::AsNumber asn,
                   net::Ipv4Address address, bgp::RouterId routerId) {
        bgp::PeerConfig peer;
        peer.id = id;
        peer.asn = asn;
        peer.address = address;
        speaker->addPeer(peer);
        establishPeer(*speaker, id, asn, routerId);
    };
    for (size_t i = 0; i < kFeedPeers; ++i)
        add(bgp::PeerId(i), feedAs(i), feedAddress(i),
            bgp::RouterId(100 + i));
    add(kDownstream, 65100, net::Ipv4Address(10, 2, 0, 2), 900);
    add(kUpdatePeer, kUpdatePeerAs, kUpdatePeerAddress, 950);
    return speaker;
}

bgp::SpeakerCounters
delta(const bgp::SpeakerCounters &after, const bgp::SpeakerCounters &before)
{
    bgp::SpeakerCounters d;
    d.updatesReceived = after.updatesReceived - before.updatesReceived;
    d.decisionRuns = after.decisionRuns - before.decisionRuns;
    d.locRibChanges = after.locRibChanges - before.locRibChanges;
    d.fibChanges = after.fibChanges - before.fibChanges;
    d.updatesSent = after.updatesSent - before.updatesSent;
    d.prefixesAdvertised = after.prefixesAdvertised - before.prefixesAdvertised;
    d.notificationsSent = after.notificationsSent - before.notificationsSent;
    return d;
}

bool
sameCounters(const bgp::SpeakerCounters &a, const bgp::SpeakerCounters &b)
{
    return a.updatesReceived == b.updatesReceived &&
           a.decisionRuns == b.decisionRuns &&
           a.locRibChanges == b.locRibChanges &&
           a.fibChanges == b.fibChanges && a.updatesSent == b.updatesSent &&
           a.prefixesAdvertised == b.prefixesAdvertised &&
           a.notificationsSent == b.notificationsSent;
}

/** The (prefix, best peer, best attributes, FIB next hop) table. */
struct RouteState
{
    net::Prefix prefix;
    bgp::PeerId peer;
    bgp::PathAttributesPtr attrs;
    uint32_t fibNextHop;
};

std::vector<RouteState>
captureState(const bgp::BgpSpeaker &speaker, const fib::ForwardingTable &fib)
{
    std::vector<RouteState> state;
    speaker.locRib().forEach(
        [&](const net::Prefix &prefix, const bgp::LocRib::Entry &entry) {
            const fib::FibEntry *installed = fib.exact(prefix);
            state.push_back(RouteState{
                prefix, entry.best.peer, entry.best.attributes,
                installed ? installed->nextHop.toUint32() : 0});
        });
    return state;
}

/**
 * The Phase 1 checks: table sizes, every Adj-RIB-In entry against the
 * decoded input, every Loc-RIB best against the reference decision,
 * the FIB against a Loc-RIB walk, and the downstream Adj-RIB-Out.
 */
void
checkLoadedTable(const FeedInputs &in, const bgp::BgpSpeaker &speaker,
                 const FeedSink &sink, Checker &check)
{
    const size_t routes = in.prefixes.size();
    check.expect(routes == kRoutesPerPeer,
                 "feed generated " + std::to_string(routes) +
                     " distinct prefixes, expected " +
                     std::to_string(kRoutesPerPeer));
    check.expect(speaker.locRib().size() == routes,
                 "Loc-RIB holds " + std::to_string(speaker.locRib().size()) +
                     " routes, expected " + std::to_string(routes));

    std::unordered_map<net::Prefix, uint32_t> index;
    for (size_t i = 0; i < routes; ++i)
        index.emplace(in.prefixes[i], uint32_t(i));
    std::vector<std::vector<bgp::PathAttributesPtr>> sent(
        kFeedPeers, std::vector<bgp::PathAttributesPtr>(routes));
    for (const Delivery &d : in.phase1) {
        bgp::DecodeError error;
        auto msg = bgp::decodeMessage(d.wire->bytes(), error);
        const auto &update = std::get<bgp::UpdateMessage>(*msg);
        for (const auto &prefix : update.nlri)
            sent[d.peer][index.at(prefix)] = update.attributes;
    }

    size_t adjInMismatch = 0;
    size_t decisionMismatch = 0;
    size_t fibMismatch = 0;
    size_t adjOutMissing = 0;
    std::vector<RefCandidate> candidates;
    for (size_t i = 0; i < routes; ++i) {
        const net::Prefix &prefix = in.prefixes[i];
        candidates.clear();
        for (size_t p = 0; p < kFeedPeers; ++p) {
            const auto *entry = speaker.adjRibIn(bgp::PeerId(p)).find(prefix);
            if (!sent[p][i] || !entry || !entry->received ||
                !(*entry->received == *sent[p][i]))
                ++adjInMismatch;
            if (sent[p][i])
                candidates.push_back(RefCandidate{
                    sent[p][i].get(), bgp::PeerId(p), bgp::RouterId(100 + p),
                    true});
        }
        const auto *best = speaker.locRib().find(prefix);
        if (candidates.empty() || !best) {
            ++decisionMismatch;
            continue;
        }
        const RefCandidate &ref = candidates[referenceBest(candidates)];
        if (best->best.peer != ref.peer ||
            !(*best->best.attributes == *ref.attrs))
            ++decisionMismatch;
        const fib::FibEntry *installed = sink.fib.exact(prefix);
        if (!installed || installed->nextHop != ref.attrs->nextHop)
            ++fibMismatch;
        if (!speaker.adjRibOut(kDownstream).find(prefix))
            ++adjOutMissing;
    }
    check.expect(adjInMismatch == 0,
                 std::to_string(adjInMismatch) +
                     " Adj-RIB-In entries differ from the feed sent");
    for (size_t p = 0; p < kFeedPeers; ++p)
        check.expect(speaker.adjRibIn(bgp::PeerId(p)).size() == routes,
                     "Adj-RIB-In of peer " + std::to_string(p) +
                         " does not hold the full feed");
    check.expect(decisionMismatch == 0,
                 std::to_string(decisionMismatch) +
                     " Loc-RIB bests differ from the reference decision");
    check.expect(fibMismatch == 0 && sink.fib.size() == routes,
                 std::to_string(fibMismatch) +
                     " FIB entries differ from the Loc-RIB walk");
    check.expect(adjOutMissing == 0 &&
                     speaker.adjRibOut(kDownstream).size() == routes,
                 "downstream Adj-RIB-Out does not cover the Loc-RIB");
}

void
checkRestored(const std::vector<RouteState> &loaded,
              const std::vector<RouteState> &restored, Checker &check)
{
    bool same = loaded.size() == restored.size();
    for (size_t i = 0; same && i < loaded.size(); ++i) {
        same = loaded[i].prefix == restored[i].prefix &&
               loaded[i].peer == restored[i].peer &&
               *loaded[i].attrs == *restored[i].attrs &&
               loaded[i].fibNextHop == restored[i].fibNextHop;
    }
    check.expect(same, "Loc-RIB/FIB after the Phase 3 withdrawals differ "
                       "from their state after Phase 1");
}

/** Hooks of one repetition; all null for a plain timed repetition. */
struct RepHooks
{
    Checker *check = nullptr;
    SpanLog *log = nullptr;
    obs::MetricRegistry *registry = nullptr;
    std::vector<net::WireSegmentPtr> *capture = nullptr;
    /** Called after Phase 1 with the loaded speaker (traced runs). */
    std::function<void(const bgp::BgpSpeaker &)> onLoaded;
};

struct RepResult
{
    double ingestS = 0.0;
    double updateS = 0.0;
    std::vector<double> ingestSlices;
    std::vector<double> updateSlices;
    bgp::SpeakerCounters phase1;
    bgp::SpeakerCounters phase3;
    uint64_t phase1TxBytes = 0;
    double ribBytesPerRoute = 0.0;
    size_t ribBytes = 0;
    uint64_t adjInRoutes = 0;
    uint64_t phase3FibEvents = 0;
};

RepResult
feedRep(const FeedInputs &in, const RepHooks &hooks)
{
    RepResult r;
    FeedSink sink;
    SpanLog *log = hooks.log;
    uint32_t recv1 = 0, recv3 = 0;
    if (log) {
        sink.log = log;
        sink.transmitSpan = log->intern("sink.transmit");
        sink.installSpan = log->intern("fib.install");
        recv1 = log->intern("bgp.receive.phase1");
        recv3 = log->intern("bgp.receive.phase3");
    }
    sink.capture = hooks.capture;
    auto speaker = makeSpeaker(sink);
    if (hooks.registry)
        speaker->bindObservability(hooks.registry, nullptr, 0);

    const bgp::SpeakerCounters c0 = speaker->counters();
    const uint64_t tx0 = sink.txBytes;
    for (size_t slice = 0; slice < in.phase1Slices.size(); ++slice) {
        const size_t end = slice + 1 < in.phase1Slices.size()
                               ? in.phase1Slices[slice + 1]
                               : in.phase1.size();
        const Clock::time_point t = Clock::now();
        for (size_t k = in.phase1Slices[slice]; k < end; ++k) {
            const Delivery &d = in.phase1[k];
            ScopedSpan span(log, recv1);
            speaker->receiveSegment(d.peer, d.wire, d.now);
        }
        r.ingestSlices.push_back(secondsSince(t));
        r.ingestS += r.ingestSlices.back();
    }
    sink.capture = nullptr;
    const bgp::SpeakerCounters c1 = speaker->counters();
    r.phase1 = delta(c1, c0);
    r.phase1TxBytes = sink.txBytes - tx0;
    for (size_t p = 0; p < kFeedPeers; ++p)
        r.adjInRoutes += speaker->adjRibIn(bgp::PeerId(p)).size();
    r.ribBytes = speaker->ribMemoryBytes();
    r.ribBytesPerRoute = double(r.ribBytes) / double(ribEntries(*speaker));

    std::vector<RouteState> loaded;
    if (hooks.check) {
        checkLoadedTable(in, *speaker, sink, *hooks.check);
        loaded = captureState(*speaker, sink.fib);
    }
    if (hooks.onLoaded)
        hooks.onLoaded(*speaker);

    const uint64_t fib0 = sink.fibEvents;
    for (size_t base = 0; base < in.phase3.size(); base += kPhase3Slice) {
        const size_t end = std::min(in.phase3.size(), base + kPhase3Slice);
        const Clock::time_point t = Clock::now();
        for (size_t k = base; k < end; ++k) {
            const Delivery &d = in.phase3[k];
            ScopedSpan span(log, recv3);
            speaker->receiveSegment(d.peer, d.wire, d.now);
        }
        r.updateSlices.push_back(secondsSince(t));
        r.updateS += r.updateSlices.back();
    }
    r.phase3 = delta(speaker->counters(), c1);
    r.phase3FibEvents = sink.fibEvents - fib0;

    if (hooks.check) {
        checkRestored(loaded, captureState(*speaker, sink.fib),
                      *hooks.check);
        hooks.check->expect(r.phase3FibEvents == 2 * kPhase3Prefixes &&
                                r.phase3.fibChanges == 2 * kPhase3Prefixes,
                            "Phase 3 made " +
                                std::to_string(r.phase3FibEvents) +
                                " FIB changes, expected " +
                                std::to_string(2 * kPhase3Prefixes));
    }
    return r;
}

/** Operations of one repetition that did not land. */
uint64_t
failedOps(const FeedInputs &in, const RepResult &r)
{
    const uint64_t lost = in.announcements > r.adjInRoutes
                              ? in.announcements - r.adjInRoutes
                              : 0;
    const uint64_t phase3Lost = in.phase3.size() > r.phase3.updatesReceived
                                    ? in.phase3.size() -
                                          r.phase3.updatesReceived
                                    : 0;
    return lost + phase3Lost;
}

/**
 * Mean ns of one selectBest() over the Adj-RIB-In candidates of a
 * seeded sample of loaded prefixes.
 */
double
timeSelectBest(const FeedInputs &in, const bgp::BgpSpeaker &speaker,
               uint64_t seed, Checker &check)
{
    std::vector<std::vector<bgp::Candidate>> samples;
    workload::Rng rng(seed ^ 0xc0ffeeu);
    for (int s = 0; s < 2000; ++s) {
        const net::Prefix &prefix = in.prefixes[rng.below(in.prefixes.size())];
        samples.emplace_back();
        for (size_t p = 0; p < kFeedPeers; ++p) {
            const auto *entry = speaker.adjRibIn(bgp::PeerId(p)).find(prefix);
            if (entry && entry->effective)
                samples.back().push_back(bgp::Candidate{
                    entry->effective, bgp::PeerId(p), bgp::RouterId(100 + p),
                    true, false});
        }
    }
    uint64_t calls = 0;
    size_t picked = 0;
    const Clock::time_point t = Clock::now();
    for (int round = 0; round < 20; ++round) {
        for (const auto &candidates : samples) {
            picked += bgp::selectBest(candidates).value_or(kFeedPeers);
            ++calls;
        }
    }
    const double seconds = secondsSince(t);
    check.expect(picked < calls * kFeedPeers,
                 "selectBest found no best among full candidate sets");
    return seconds * 1e9 / double(calls);
}

} // namespace

Outcome
runFeed(const Options &options, Clock::time_point start, Checker &check)
{
    const FeedInputs in = makeInputs(options.seed);
    const RepResult warm = feedRep(in, RepHooks{});

    Outcome out;
    out.setupS = secondsSince(start);
    SliceBest ingest, update;
    const int reps = repetitionsFor(options.seconds, kNominalRepS);
    out.timedReps = timedRepetitions(reps, [&](int rep) {
        RepHooks hooks;
        hooks.check = rep == 0 ? &check : nullptr;
        const RepResult r = feedRep(in, hooks);
        ingest.record(r.ingestSlices);
        update.record(r.updateSlices);
        if (rep == 0)
            out.ribBytesPerRoute = r.ribBytesPerRoute;
        check.expect(sameCounters(r.phase1, warm.phase1) &&
                         sameCounters(r.phase3, warm.phase3),
                     "repetition " + std::to_string(rep) +
                         " counted different speaker work");
        check.attempted(in.announcements + in.phase3.size());
        check.failed(failedOps(in, r));
    });

    out.phaseAS = ingest.total();
    out.phaseBS = update.total();
    out.named = {
        {"ingest_tps", double(in.announcements) / out.phaseAS, "prefixes/s"},
        {"update_tps", double(in.phase3.size()) / out.phaseBS, "UPDATEs/s"},
        {"rib_bytes_per_route", out.ribBytesPerRoute, "B"},
        {"feed_generation_s", in.generationS, "s"},
    };
    return out;
}

void
profileFeed(const Options &options, double budgetS,
            std::vector<Metric> &layers, Checker &check)
{
    const FeedInputs in = makeInputs(options.seed);
    layers.push_back({"workload.feed_gen_s", in.generationS, "s"});
    // The warm-up repetition captures the exports the encode replay
    // re-encodes, so no measured repetition holds them alive.
    std::vector<net::WireSegmentPtr> exports;
    RepHooks warmup;
    warmup.capture = &exports;
    feedRep(in, warmup);

    // Traced and untraced repetitions alternate; the ratio of their
    // best totals is the tracing overhead.
    SpanLog log;
    std::unique_ptr<obs::MetricRegistry> registry;
    double selectNs = 0.0;
    double bestPlain = std::numeric_limits<double>::infinity();
    double bestTraced = std::numeric_limits<double>::infinity();
    RepResult traced;
    bgp::AttributeInterner::Stats intern;
    net::BufferPool::Stats wire;
    uint64_t wireBaseline = 0;
    const Clock::time_point start = Clock::now();
    for (int pair = 0; pair == 0 || secondsSince(start) < budgetS; ++pair) {
        const RepResult plain = feedRep(in, RepHooks{});
        keepBest(bestPlain, plain.ingestS + plain.updateS);

        log.clear();
        registry = std::make_unique<obs::MetricRegistry>();
        RepHooks hooks;
        hooks.log = &log;
        hooks.registry = registry.get();
        hooks.onLoaded = [&](const bgp::BgpSpeaker &speaker) {
            selectNs = timeSelectBest(in, speaker, options.seed, check);
        };
        bgp::AttributeInterner::global().resetStats();
        net::BufferPool::global().resetStats();
        wireBaseline = net::BufferPool::global().stats().outstanding;
        traced = feedRep(in, hooks);
        intern = bgp::AttributeInterner::global().stats();
        wire = net::BufferPool::global().stats();
        keepBest(bestTraced, traced.ingestS + traced.updateS);
    }
    check.attempted(in.announcements + in.phase3.size());
    check.failed(failedOps(in, traced));
    check.expect(registry->counterValue("bgp.decision_runs") ==
                         traced.phase1.decisionRuns +
                             traced.phase3.decisionRuns &&
                     registry->counterValue("bgp.updates_sent") ==
                         traced.phase1.updatesSent +
                             traced.phase3.updatesSent,
                 "obs registry and speaker counters disagree");

    // Codec replays: decode the Phase 1 and Phase 3 streams, and
    // re-encode the captured exports.
    auto decodeReplay = [](const std::vector<Delivery> &stream,
                           uint64_t &prefixes, uint64_t &messages) {
        std::vector<bgp::StreamDecoder> decoders(kFeedPeers + 2);
        prefixes = messages = 0;
        const Clock::time_point t = Clock::now();
        for (const Delivery &d : stream) {
            bgp::StreamDecoder &decoder = decoders[d.peer];
            decoder.feed(d.wire);
            bgp::DecodeError error;
            while (auto msg = decoder.next(error)) {
                const auto &update = std::get<bgp::UpdateMessage>(*msg);
                prefixes += update.nlri.size() + update.withdrawnRoutes.size();
                ++messages;
            }
        }
        return secondsSince(t);
    };
    uint64_t prefixes = 0, messages = 0;
    const double decode1 = decodeReplay(in.phase1, prefixes, messages);
    check.expect(prefixes == in.announcements,
                 "Phase 1 decode replay lost prefixes");
    layers.push_back({"bgp.decode_ns_per_prefix",
                      decode1 * 1e9 / double(prefixes), "ns"});
    const double decode3 = decodeReplay(in.phase3, prefixes, messages);
    check.expect(messages == in.phase3.size(),
                 "Phase 3 decode replay lost messages");
    layers.push_back(
        {"bgp.decode_ns_per_msg", decode3 * 1e9 / double(messages), "ns"});

    std::vector<bgp::UpdateMessage> exported;
    for (const auto &wire : exports) {
        bgp::DecodeError error;
        auto msg = bgp::decodeMessage(wire->bytes(), error);
        if (msg)
            exported.push_back(std::get<bgp::UpdateMessage>(*msg));
    }
    size_t encodedBytes = 0;
    Clock::time_point t = Clock::now();
    for (const auto &update : exported)
        encodedBytes += bgp::encodeSegment(update)->size();
    const double encodeS = secondsSince(t);
    size_t capturedBytes = 0;
    for (const auto &wire : exports)
        capturedBytes += wire->size();
    check.expect(encodedBytes == capturedBytes,
                 "re-encoded exports differ in size from the originals");
    layers.push_back(
        {"bgp.encode_ns_per_msg",
         encodeS * 1e9 / double(std::max<size_t>(1, exported.size())), "ns"});

    const SpanLog::Totals r1 = log.totals("bgp.receive.phase1");
    const SpanLog::Totals r3 = log.totals("bgp.receive.phase3");
    layers.push_back({"bgp.receive_self_ns_per_prefix",
                      double(r1.selfNs) / double(in.announcements), "ns"});
    layers.push_back({"bgp.receive_self_ns_per_msg",
                      double(r3.selfNs) / double(in.phase3.size()), "ns"});

    layers.push_back({"bgp.select_best_ns", selectNs, "ns"});

    const std::pair<const char *, const bgp::SpeakerCounters *> phases[] = {
        {"phase1", &traced.phase1}, {"phase3", &traced.phase3}};
    for (const auto &[name, c] : phases) {
        const std::string prefix = std::string("bgp.") + name + ".";
        layers.push_back({prefix + "decision_runs", double(c->decisionRuns),
                          "count"});
        layers.push_back({prefix + "locrib_changes",
                          double(c->locRibChanges), "count"});
        layers.push_back(
            {prefix + "fib_changes", double(c->fibChanges), "count"});
        layers.push_back(
            {prefix + "updates_sent", double(c->updatesSent), "count"});
        layers.push_back({prefix + "prefixes_advertised",
                          double(c->prefixesAdvertised), "count"});
    }
    layers.push_back({"bgp.tx_bytes_per_prefix",
                      double(traced.phase1TxBytes) /
                          double(traced.phase1.prefixesAdvertised),
                      "B"});
    layers.push_back({"bgp.intern_hit_rate", intern.hitRatio(), "ratio"});
    layers.push_back({"bgp.rib_bytes", double(traced.ribBytes), "B"});
    layers.push_back({"net.wire_pool_hit_rate", wire.hitRatio(), "ratio"});
    layers.push_back({"net.wire_peak_segments",
                      double(wire.peakOutstanding - wireBaseline), "count"});
    const SpanLog::Totals install = log.totals("fib.install");
    layers.push_back({"fib.install_ns",
                      double(install.totalNs) / double(install.count), "ns"});
    layers.push_back(
        {"obs.trace_overhead_ratio.feed", bestTraced / bestPlain, "ratio"});
}

} // namespace perfbench
