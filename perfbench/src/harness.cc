#include "harness.hh"

#include "bgp/message.hh"
#include "obs/process_memory.hh"

namespace perfbench
{

using namespace bgpbench;

SpanLog::Totals
SpanLog::totals(const std::string &name) const
{
    Totals out;
    auto it = std::find(names_.begin(), names_.end(), name);
    if (it == names_.end())
        return out;
    const uint32_t id = uint32_t(it - names_.begin());
    std::vector<uint64_t> childNs(spans_.size(), 0);
    for (const Span &span : spans_) {
        if (span.parent != kNoParent)
            childNs[span.parent] += span.endNs - span.beginNs;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        if (span.name != id)
            continue;
        const uint64_t duration = span.endNs - span.beginNs;
        ++out.count;
        out.totalNs += duration;
        out.selfNs += duration - std::min(duration, childNs[i]);
    }
    return out;
}

size_t
ribEntries(const bgp::BgpSpeaker &speaker)
{
    size_t entries = speaker.locRib().size();
    for (bgp::PeerId id : speaker.peerIds())
        entries += speaker.adjRibIn(id).size() + speaker.adjRibOut(id).size();
    return entries;
}

double
peakRssMb()
{
    return double(obs::readProcessMemory().vmHwmKb) / 1024.0;
}

void
establishPeer(bgp::BgpSpeaker &speaker, bgp::PeerId id, bgp::AsNumber asn,
              bgp::RouterId routerId)
{
    speaker.startPeer(id, 0);
    speaker.tcpEstablished(id, 0);
    bgp::OpenMessage open;
    open.myAs = asn;
    open.bgpIdentifier = routerId;
    speaker.receiveBytes(id, bgp::encodeMessage(open), 0);
    speaker.receiveBytes(id, bgp::encodeMessage(bgp::KeepaliveMessage{}), 0);
}

} // namespace perfbench
