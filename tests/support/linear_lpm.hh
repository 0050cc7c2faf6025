/**
 * @file
 * Brute-force longest-prefix-match oracle for the property tests of
 * net::PrefixTree and the structures built on it (FIB, RIB
 * snapshots). Every answer is a linear scan over the stored entries,
 * so it is correct by inspection.
 */

#ifndef BGPBENCH_TESTS_SUPPORT_LINEAR_LPM_HH
#define BGPBENCH_TESTS_SUPPORT_LINEAR_LPM_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/ipv4_address.hh"
#include "net/prefix.hh"

namespace bgpbench::oracle
{

template <typename Value>
class LinearLpm
{
  public:
    /** Insert or replace; @return True if the prefix was new. */
    bool
    insert(const net::Prefix &prefix, Value value)
    {
        for (auto &[p, v] : entries_) {
            if (p == prefix) {
                v = std::move(value);
                return false;
            }
        }
        entries_.emplace_back(prefix, std::move(value));
        return true;
    }

    /** @return True if the prefix was present. */
    bool
    remove(const net::Prefix &prefix)
    {
        for (size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].first == prefix) {
                entries_.erase(entries_.begin() + ptrdiff_t(i));
                return true;
            }
        }
        return false;
    }

    /** The value stored for exactly @p prefix, or nullptr. */
    const Value *
    exact(const net::Prefix &prefix) const
    {
        for (const auto &[p, v] : entries_) {
            if (p == prefix)
                return &v;
        }
        return nullptr;
    }

    /** Value of the longest stored prefix containing @p addr. */
    const Value *
    lookup(net::Ipv4Address addr) const
    {
        const Value *best = nullptr;
        int best_len = -1;
        for (const auto &[p, v] : entries_) {
            if (p.contains(addr) && p.length() > best_len) {
                best = &v;
                best_len = p.length();
            }
        }
        return best;
    }

    /**
     * Nodes a unibit trie (one node per bit, root included) holding
     * exactly these prefixes visits when looking up @p addr:
     * 1 + max over stored p of min(cpl(addr, p), p.length()).
     */
    int
    unibitNodes(net::Ipv4Address addr) const
    {
        int depth = 0;
        for (const auto &[p, v] : entries_) {
            const uint32_t diff =
                p.address().toUint32() ^ addr.toUint32();
            const int common = diff == 0 ? 32 : std::countl_zero(diff);
            depth = std::max(depth, std::min(common, p.length()));
        }
        return depth + 1;
    }

    /** Every (prefix, value), in ascending prefix order. */
    std::vector<std::pair<net::Prefix, Value>>
    sorted() const
    {
        auto out = entries_;
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        return out;
    }

    size_t size() const { return entries_.size(); }

  private:
    std::vector<std::pair<net::Prefix, Value>> entries_;
};

} // namespace bgpbench::oracle

#endif // BGPBENCH_TESTS_SUPPORT_LINEAR_LPM_HH
