#include "reference.hh"

#include <deque>

namespace perfbench
{

using namespace bgpbench;

int
referencePathLength(const bgp::AsPath &path)
{
    int length = 0;
    for (const auto &segment : path.segments()) {
        if (segment.type == bgp::AsPath::SegmentType::AsSet)
            length += segment.asns.empty() ? 0 : 1;
        else
            length += int(segment.asns.size());
    }
    return length;
}

namespace
{

bgp::AsNumber
neighbourAs(const bgp::AsPath &path)
{
    for (const auto &segment : path.segments()) {
        if (segment.type == bgp::AsPath::SegmentType::AsSequence &&
            !segment.asns.empty())
            return segment.asns.front();
    }
    return 0;
}

/** True when @p a is strictly preferred over @p b. */
bool
preferred(const RefCandidate &a, const RefCandidate &b)
{
    const bgp::PathAttributes &x = *a.attrs;
    const bgp::PathAttributes &y = *b.attrs;
    const uint32_t lpx = x.localPref.value_or(100);
    const uint32_t lpy = y.localPref.value_or(100);
    if (lpx != lpy)
        return lpx > lpy;
    const int lenx = referencePathLength(x.asPath);
    const int leny = referencePathLength(y.asPath);
    if (lenx != leny)
        return lenx < leny;
    if (x.origin != y.origin)
        return int(x.origin) < int(y.origin);
    const bgp::AsNumber nx = neighbourAs(x.asPath);
    if (nx != 0 && nx == neighbourAs(y.asPath) &&
        x.med.value_or(0) != y.med.value_or(0))
        return x.med.value_or(0) < y.med.value_or(0);
    if (a.external != b.external)
        return a.external;
    if (x.clusterList.size() != y.clusterList.size())
        return x.clusterList.size() < y.clusterList.size();
    return x.originatorId.value_or(a.peerRouterId) <
           y.originatorId.value_or(b.peerRouterId);
}

} // namespace

size_t
referenceBest(const std::vector<RefCandidate> &candidates)
{
    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
        if (preferred(candidates[i], candidates[best]))
            best = i;
    }
    return best;
}

long
linearLongestMatch(const std::vector<net::Prefix> &prefixes,
                   net::Ipv4Address addr)
{
    long best = -1;
    int bestLength = -1;
    for (size_t i = 0; i < prefixes.size(); ++i) {
        if (prefixes[i].contains(addr) && prefixes[i].length() > bestLength) {
            best = long(i);
            bestLength = prefixes[i].length();
        }
    }
    return best;
}

std::vector<int>
bfsHops(const topo::Topology &topology, size_t source)
{
    std::vector<int> hops(topology.nodeCount(), -1);
    std::deque<size_t> queue{source};
    hops[source] = 0;
    while (!queue.empty()) {
        const size_t node = queue.front();
        queue.pop_front();
        for (const auto &adjacent : topology.neighborsOf(node)) {
            if (hops[adjacent.node] < 0) {
                hops[adjacent.node] = hops[node] + 1;
                queue.push_back(adjacent.node);
            }
        }
    }
    return hops;
}

bool
headerChecksumOk(const net::DataPacket &packet)
{
    const net::Ipv4Header &h = packet.header;
    const uint32_t src = h.source.toUint32();
    const uint32_t dst = h.destination.toUint32();
    // The ten 16-bit words of a 20-byte header: version/IHL/TOS,
    // total length, identification, flags/fragment, TTL/protocol,
    // checksum, source (2), destination (2).
    const uint16_t words[10] = {
        0x4500,
        h.totalLength,
        0,
        0,
        uint16_t((uint16_t(h.ttl) << 8) | h.protocol),
        h.headerChecksum,
        uint16_t(src >> 16),
        uint16_t(src),
        uint16_t(dst >> 16),
        uint16_t(dst),
    };
    uint32_t sum = 0;
    for (uint16_t word : words)
        sum += word;
    while (sum >> 16)
        sum = (sum & 0xffff) + (sum >> 16);
    return sum == 0xffff;
}

} // namespace perfbench
