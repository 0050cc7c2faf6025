/**
 * @file
 * Unit and property tests for longest-prefix match as the FIB does it:
 * a net::PrefixTree with its stride-16 root index enabled, checked
 * against the linear oracle. The suite names predate the tree.
 */

#include <gtest/gtest.h>

#include "net/prefix_tree.hh"
#include "support/linear_lpm.hh"
#include "workload/rng.hh"

using namespace bgpbench;
using net::Ipv4Address;
using net::Prefix;
using oracle::LinearLpm;

namespace
{

/** A tree configured as the FIB configures its own. */
template <typename V>
net::PrefixTree<V>
fibTree()
{
    net::PrefixTree<V> tree;
    tree.enableRootIndex();
    return tree;
}

/** insert() with the old bool-returning contract. */
template <typename V>
bool
insertNew(net::PrefixTree<V> &tree, const Prefix &prefix, V value)
{
    bool inserted = false;
    tree.insert(prefix, value, &inserted);
    return inserted;
}

} // namespace

TEST(LpmTrie, EmptyLookupMisses)
{
    auto trie = fibTree<int>();
    EXPECT_EQ(trie.size(), 0u);
    EXPECT_EQ(trie.matchLongest(Ipv4Address(1, 2, 3, 4)), nullptr);
}

TEST(LpmTrie, InsertAndExact)
{
    auto trie = fibTree<int>();
    EXPECT_TRUE(insertNew(trie, Prefix::fromString("10.0.0.0/8"), 1));
    EXPECT_FALSE(insertNew(trie, Prefix::fromString("10.0.0.0/8"), 2));
    EXPECT_EQ(trie.size(), 1u);
    ASSERT_NE(trie.find(Prefix::fromString("10.0.0.0/8")), nullptr);
    EXPECT_EQ(*trie.find(Prefix::fromString("10.0.0.0/8")), 2);
    EXPECT_EQ(trie.find(Prefix::fromString("10.0.0.0/16")), nullptr);
}

TEST(LpmTrie, LongestMatchWins)
{
    auto trie = fibTree<int>();
    trie.insert(Prefix::fromString("10.0.0.0/8"), 8);
    trie.insert(Prefix::fromString("10.1.0.0/16"), 16);
    trie.insert(Prefix::fromString("10.1.2.0/24"), 24);

    EXPECT_EQ(*trie.matchLongest(Ipv4Address(10, 1, 2, 3)), 24);
    EXPECT_EQ(*trie.matchLongest(Ipv4Address(10, 1, 9, 9)), 16);
    EXPECT_EQ(*trie.matchLongest(Ipv4Address(10, 9, 9, 9)), 8);
    EXPECT_EQ(trie.matchLongest(Ipv4Address(11, 0, 0, 1)), nullptr);
}

TEST(LpmTrie, DefaultRouteCatchesEverything)
{
    auto trie = fibTree<int>();
    trie.insert(Prefix(), 0);
    EXPECT_EQ(*trie.matchLongest(Ipv4Address(1, 2, 3, 4)), 0);
    EXPECT_EQ(*trie.matchLongest(Ipv4Address(255, 255, 255, 255)), 0);
}

TEST(LpmTrie, HostRoute)
{
    auto trie = fibTree<int>();
    trie.insert(Prefix::fromString("10.0.0.5/32"), 5);
    EXPECT_EQ(*trie.matchLongest(Ipv4Address(10, 0, 0, 5)), 5);
    EXPECT_EQ(trie.matchLongest(Ipv4Address(10, 0, 0, 6)), nullptr);
}

TEST(LpmTrie, RemoveExposesShorterPrefix)
{
    auto trie = fibTree<int>();
    trie.insert(Prefix::fromString("10.0.0.0/8"), 8);
    trie.insert(Prefix::fromString("10.1.0.0/16"), 16);

    EXPECT_TRUE(trie.erase(Prefix::fromString("10.1.0.0/16")));
    EXPECT_FALSE(trie.erase(Prefix::fromString("10.1.0.0/16")));
    EXPECT_EQ(*trie.matchLongest(Ipv4Address(10, 1, 2, 3)), 8);
    EXPECT_EQ(trie.size(), 1u);
}

TEST(LpmTrie, RemoveMissingReturnsFalse)
{
    auto trie = fibTree<int>();
    EXPECT_FALSE(trie.erase(Prefix::fromString("10.0.0.0/8")));
}

TEST(LpmTrie, VisitedNodeCountBounded)
{
    auto trie = fibTree<int>();
    trie.insert(Prefix::fromString("10.1.2.3/32"), 1);
    int visited = 0;
    trie.matchLongest(Ipv4Address(10, 1, 2, 3), &visited);
    EXPECT_GE(visited, 32);
    EXPECT_LE(visited, 33);

    // A miss on a different top octet stops early.
    trie.matchLongest(Ipv4Address(192, 0, 0, 1), &visited);
    EXPECT_LE(visited, 8);
}

TEST(LpmTrie, EntriesRoundTrip)
{
    auto trie = fibTree<int>();
    std::vector<std::pair<Prefix, int>> inserted = {
        {Prefix::fromString("10.0.0.0/8"), 1},
        {Prefix::fromString("10.128.0.0/9"), 2},
        {Prefix::fromString("192.168.1.0/24"), 3},
        {Prefix(), 4},
    };
    for (const auto &[p, v] : inserted)
        trie.insert(p, v);

    std::vector<std::pair<Prefix, int>> entries;
    trie.forEach([&](const Prefix &p, int v) { entries.emplace_back(p, v); });
    ASSERT_EQ(entries.size(), inserted.size());
    for (const auto &[p, v] : inserted) {
        bool found = false;
        for (const auto &[ep, ev] : entries)
            found = found || (ep == p && ev == v);
        EXPECT_TRUE(found) << p.toString();
    }
}

/**
 * Property suite: random insert/remove/lookup traces agree with the
 * linear-scan oracle at every step, lookup work included.
 */
class LpmTrieOracleTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(LpmTrieOracleTest, MatchesLinearOracle)
{
    workload::Rng rng(GetParam());
    auto trie = fibTree<uint32_t>();
    LinearLpm<uint32_t> oracle;
    std::vector<Prefix> pool;

    for (int step = 0; step < 1500; ++step) {
        int action = int(rng.below(10));
        if (action < 5 || pool.empty()) {
            // Insert: cluster prefixes to force shared trie paths.
            uint32_t base = uint32_t(rng.below(4)) << 30;
            Prefix p(Ipv4Address(base | uint32_t(rng.next() &
                                                 0x3fffffff)),
                     int(rng.range(4, 32)));
            uint32_t value = uint32_t(rng.next());
            EXPECT_EQ(insertNew(trie, p, value),
                      oracle.insert(p, value));
            pool.push_back(p);
        } else if (action < 7) {
            Prefix p = pool[rng.below(pool.size())];
            EXPECT_EQ(trie.erase(p), oracle.remove(p));
        } else {
            // Lookup near an existing prefix to hit interesting
            // boundaries, or anywhere.
            Ipv4Address probe;
            if (rng.below(2)) {
                Prefix p = pool[rng.below(pool.size())];
                probe = Ipv4Address(p.address().toUint32() |
                                    uint32_t(rng.next() & 0xff));
            } else {
                probe = Ipv4Address(uint32_t(rng.next()));
            }
            int visited = 0;
            const uint32_t *a = trie.matchLongest(probe, &visited);
            const uint32_t *b = oracle.lookup(probe);
            ASSERT_EQ(a == nullptr, b == nullptr)
                << "step " << step << " probe " << probe.toString();
            if (a) {
                EXPECT_EQ(*a, *b);
            }
            EXPECT_EQ(visited, oracle.unibitNodes(probe))
                << "step " << step << " probe " << probe.toString();
        }
        EXPECT_EQ(trie.size(), oracle.size());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmTrieOracleTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));
