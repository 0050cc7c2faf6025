/**
 * @file
 * Independent reference computations the benchmark checks the
 * program's outputs against. Each one is the plain, linear form of
 * what the library does with tuned structures: a decision process
 * that walks the RFC 4271 tie-break ladder over a candidate list, a
 * longest-prefix match that scans every prefix, a breadth-first
 * search for AS-hop distances, and an RFC 1071 header checksum.
 */

#ifndef PERFBENCH_REFERENCE_HH
#define PERFBENCH_REFERENCE_HH

#include <cstddef>
#include <vector>

#include "bgp/path_attributes.hh"
#include "bgp/route.hh"
#include "net/packet.hh"
#include "net/prefix.hh"
#include "topo/topology.hh"

namespace perfbench
{

/** One route offered to the reference decision. */
struct RefCandidate
{
    const bgpbench::bgp::PathAttributes *attrs = nullptr;
    bgpbench::bgp::PeerId peer = 0;
    bgpbench::bgp::RouterId peerRouterId = 0;
    bool external = true;
};

/** AS_PATH length as the decision counts it (an AS_SET counts 1). */
int referencePathLength(const bgpbench::bgp::AsPath &path);

/**
 * Index of the best candidate by a linear walk of the RFC 4271
 * section 9.1.2.2 ladder (LOCAL_PREF, AS_PATH length, ORIGIN, MED
 * between routes from the same neighbour AS, eBGP over iBGP,
 * CLUSTER_LIST length, lowest router id). @p candidates must not be
 * empty.
 */
size_t referenceBest(const std::vector<RefCandidate> &candidates);

/**
 * Index of the longest prefix in @p prefixes containing @p addr,
 * found by scanning all of them; -1 when none does.
 */
long linearLongestMatch(const std::vector<bgpbench::net::Prefix> &prefixes,
                        bgpbench::net::Ipv4Address addr);

/** AS-hop distance from @p source to every node (-1: unreachable). */
std::vector<int> bfsHops(const bgpbench::topo::Topology &topology,
                         size_t source);

/**
 * True when the packet's header checksum field makes the RFC 1071
 * one's-complement sum over its 20-byte header come out as 0xffff.
 */
bool headerChecksumOk(const bgpbench::net::DataPacket &packet);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_HH
