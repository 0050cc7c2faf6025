/**
 * @file
 * Tests of net::PrefixTree: the path-compressed radix trie backing
 * the shared RIB prefix table. Unit cases pin the structural
 * invariants (compression, splice-on-erase, free-list reuse, ordered
 * iteration); the randomized cases lockstep the tree, with and
 * without its root index, against std::map and the linear-scan LPM
 * oracle.
 */

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "net/prefix.hh"
#include "net/prefix_tree.hh"
#include "support/linear_lpm.hh"
#include "workload/rng.hh"

using namespace bgpbench;

namespace
{

net::Prefix
pfx(const std::string &text)
{
    return net::Prefix::fromString(text);
}

net::Ipv4Address
addr(const std::string &text)
{
    return net::Ipv4Address::fromString(text);
}

/** All (prefix, value) pairs in iteration order. */
std::vector<std::pair<net::Prefix, int>>
collect(const net::PrefixTree<int> &tree)
{
    std::vector<std::pair<net::Prefix, int>> out;
    tree.forEach([&](const net::Prefix &prefix, int value) {
        out.emplace_back(prefix, value);
    });
    return out;
}


/** A deterministic pseudo-random prefix, /0../32 with mixed lengths. */
net::Prefix
randomPrefix(workload::Rng &rng)
{
    int length = int(rng.below(33));
    return net::Prefix(net::Ipv4Address(uint32_t(rng.next())), length);
}

} // namespace

TEST(PrefixTree, InsertFindErase)
{
    net::PrefixTree<int> tree;
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.find(pfx("10.0.0.0/8")), nullptr);

    bool inserted = false;
    tree.insert(pfx("10.0.0.0/8"), 1, &inserted);
    EXPECT_TRUE(inserted);
    tree.insert(pfx("10.1.0.0/16"), 2);
    tree.insert(pfx("192.168.4.0/24"), 3);
    EXPECT_EQ(tree.size(), 3u);

    ASSERT_NE(tree.find(pfx("10.0.0.0/8")), nullptr);
    EXPECT_EQ(*tree.find(pfx("10.0.0.0/8")), 1);
    EXPECT_EQ(*tree.find(pfx("10.1.0.0/16")), 2);
    EXPECT_EQ(*tree.find(pfx("192.168.4.0/24")), 3);
    // Same address, different length: distinct keys.
    EXPECT_EQ(tree.find(pfx("10.0.0.0/16")), nullptr);

    EXPECT_TRUE(tree.erase(pfx("10.1.0.0/16")));
    EXPECT_FALSE(tree.erase(pfx("10.1.0.0/16")));
    EXPECT_EQ(tree.find(pfx("10.1.0.0/16")), nullptr);
    EXPECT_EQ(tree.size(), 2u);
}

TEST(PrefixTree, InsertReplacesFindOrInsertKeeps)
{
    net::PrefixTree<int> tree;
    tree.insert(pfx("10.0.0.0/8"), 1);
    bool inserted = true;
    tree.insert(pfx("10.0.0.0/8"), 2, &inserted);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*tree.find(pfx("10.0.0.0/8")), 2);

    int *value = tree.findOrInsert(pfx("10.0.0.0/8"), &inserted);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*value, 2);

    value = tree.findOrInsert(pfx("10.0.0.0/12"), &inserted);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 0); // default-constructed on miss
    EXPECT_EQ(tree.size(), 2u);
}

TEST(PrefixTree, RootAndHostRoutes)
{
    net::PrefixTree<int> tree;
    tree.insert(pfx("0.0.0.0/0"), 7);
    tree.insert(pfx("255.255.255.255/32"), 8);
    tree.insert(pfx("0.0.0.0/32"), 9);
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_EQ(*tree.find(pfx("0.0.0.0/0")), 7);
    EXPECT_EQ(*tree.find(pfx("255.255.255.255/32")), 8);
    EXPECT_EQ(*tree.find(pfx("0.0.0.0/32")), 9);

    EXPECT_TRUE(tree.erase(pfx("0.0.0.0/0")));
    EXPECT_EQ(tree.find(pfx("0.0.0.0/0")), nullptr);
    EXPECT_EQ(*tree.find(pfx("0.0.0.0/32")), 9);
}

TEST(PrefixTree, PathCompressionBoundsNodes)
{
    // A /32 under an /8 must not expand one node per bit: the
    // invariant caps live nodes at 2 * size + 1 (root included).
    net::PrefixTree<int> tree;
    tree.insert(pfx("10.0.0.0/8"), 1);
    tree.insert(pfx("10.1.2.3/32"), 2);
    tree.insert(pfx("10.1.2.4/32"), 3);
    EXPECT_LE(tree.nodeCount(), 2 * tree.size() + 1);

    workload::Rng rng(11);
    for (int i = 0; i < 2000; ++i)
        tree.insert(randomPrefix(rng), i);
    EXPECT_LE(tree.nodeCount(), 2 * tree.size() + 1);
}

TEST(PrefixTree, ErasePrunesJointsAndReusesNodes)
{
    net::PrefixTree<int> tree;
    // 10.0.0.0/9 and 10.128.0.0/9 diverge under a valueless /8 joint.
    tree.insert(pfx("10.0.0.0/9"), 1);
    tree.insert(pfx("10.128.0.0/9"), 2);
    const size_t joint_nodes = tree.nodeCount();
    EXPECT_EQ(joint_nodes, 4u); // root + joint + two leaves

    // Removing one leaf must also splice the now single-child joint.
    EXPECT_TRUE(tree.erase(pfx("10.0.0.0/9")));
    EXPECT_EQ(tree.nodeCount(), 2u);
    EXPECT_EQ(*tree.find(pfx("10.128.0.0/9")), 2);

    // Reinserting reuses freed arena slots: node count returns to the
    // joint shape without growing the arena footprint.
    const size_t bytes = tree.memoryBytes();
    tree.insert(pfx("10.0.0.0/9"), 3);
    EXPECT_EQ(tree.nodeCount(), joint_nodes);
    EXPECT_EQ(tree.memoryBytes(), bytes);
}

TEST(PrefixTree, ForEachVisitsInPrefixOrder)
{
    net::PrefixTree<int> tree;
    std::map<net::Prefix, int> reference;
    workload::Rng rng(42);
    for (int i = 0; i < 5000; ++i) {
        net::Prefix prefix = randomPrefix(rng);
        tree.insert(prefix, i);
        reference[prefix] = i;
    }
    auto rows = collect(tree);
    ASSERT_EQ(rows.size(), reference.size());
    // std::map iterates in Prefix::operator< order; the tree's
    // pre-order walk must match it exactly, duplicates and all.
    size_t i = 0;
    for (const auto &[prefix, value] : reference) {
        EXPECT_EQ(rows[i].first, prefix);
        EXPECT_EQ(rows[i].second, value);
        ++i;
    }
}

TEST(PrefixTree, RandomizedLockstepAgainstMap)
{
    net::PrefixTree<int> tree;
    std::map<net::Prefix, int> reference;
    workload::Rng rng(7);

    // Mixed inserts, replaces, and erases; prefixes are drawn from a
    // small pool so operations collide often.
    std::vector<net::Prefix> pool;
    for (int i = 0; i < 300; ++i)
        pool.push_back(randomPrefix(rng));

    for (int op = 0; op < 20000; ++op) {
        const net::Prefix &prefix = pool[rng.below(pool.size())];
        if (rng.below(3) == 0) {
            EXPECT_EQ(tree.erase(prefix), reference.erase(prefix) > 0);
        } else {
            bool inserted = false;
            tree.insert(prefix, op, &inserted);
            EXPECT_EQ(inserted, reference.find(prefix) == reference.end());
            reference[prefix] = op;
        }
        if (op % 1000 == 0) {
            ASSERT_EQ(tree.size(), reference.size());
            ASSERT_LE(tree.nodeCount(), 2 * tree.size() + 1);
        }
    }

    ASSERT_EQ(tree.size(), reference.size());
    for (const auto &[prefix, value] : reference) {
        const int *stored = tree.find(prefix);
        ASSERT_NE(stored, nullptr);
        EXPECT_EQ(*stored, value);
    }
    auto rows = collect(tree);
    ASSERT_EQ(rows.size(), reference.size());
    EXPECT_TRUE(std::is_sorted(
        rows.begin(), rows.end(),
        [](const auto &a, const auto &b) { return a.first < b.first; }));
}

TEST(PrefixTree, MatchLongestAgainstLinearReference)
{
    net::PrefixTree<int> tree;
    oracle::LinearLpm<int> reference;
    workload::Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        // Short-biased lengths so addresses actually match something.
        int length = int(rng.below(25));
        net::Prefix prefix(net::Ipv4Address(uint32_t(rng.next())),
                           length);
        tree.insert(prefix, i);
        reference.insert(prefix, i);
    }

    for (int i = 0; i < 5000; ++i) {
        net::Ipv4Address a(uint32_t(rng.next()));
        const int *got = tree.matchLongest(a);
        const int *expect = reference.lookup(a);
        ASSERT_EQ(got != nullptr, expect != nullptr);
        if (got) {
            EXPECT_EQ(*got, *expect);
        }
    }

    // Specific covering chain: most-specific stored prefix wins.
    net::PrefixTree<int> chain;
    chain.insert(pfx("0.0.0.0/0"), 0);
    chain.insert(pfx("10.0.0.0/8"), 8);
    chain.insert(pfx("10.1.0.0/16"), 16);
    chain.insert(pfx("10.1.2.0/24"), 24);
    EXPECT_EQ(*chain.matchLongest(addr("10.1.2.3")), 24);
    EXPECT_EQ(*chain.matchLongest(addr("10.1.9.9")), 16);
    EXPECT_EQ(*chain.matchLongest(addr("10.9.9.9")), 8);
    EXPECT_EQ(*chain.matchLongest(addr("11.0.0.1")), 0);
    chain.erase(pfx("10.1.2.0/24"));
    EXPECT_EQ(*chain.matchLongest(addr("10.1.2.3")), 16);
}

TEST(PrefixTree, ClearKeepsCapacityAndResets)
{
    net::PrefixTree<int> tree;
    workload::Rng rng(5);
    for (int i = 0; i < 1000; ++i)
        tree.insert(randomPrefix(rng), i);
    const size_t bytes = tree.memoryBytes();
    tree.clear();
    EXPECT_TRUE(tree.empty());
    EXPECT_EQ(tree.nodeCount(), 1u); // the root survives
    EXPECT_EQ(tree.memoryBytes(), bytes);
    EXPECT_EQ(tree.find(pfx("10.0.0.0/8")), nullptr);
    tree.insert(pfx("10.0.0.0/8"), 1);
    EXPECT_EQ(tree.size(), 1u);
}

namespace
{

/**
 * A prefix from a small, nested population: /0, many /1–/16 (the
 * lengths the root index stores), longer prefixes and /32s, clustered
 * under a few bases so nesting, joints and cascading prunes are
 * common.
 */
net::Prefix
indexStressPrefix(workload::Rng &rng)
{
    static const uint32_t kBases[] = {0x0a000000u, 0x0a010000u,
                                      0xc0a80000u, 0xffff0000u, 0u};
    const uint32_t base = kBases[rng.below(5)];
    const uint32_t bits =
        base ^ (uint32_t(rng.next()) >> int(rng.range(0, 20)));
    const uint64_t pick = rng.below(16);
    int length;
    if (pick == 0)
        length = 0;
    else if (pick <= 8)
        length = int(rng.range(1, 16));
    else if (pick <= 12)
        length = int(rng.range(17, 31));
    else
        length = 32;
    return net::Prefix(net::Ipv4Address(bits), length);
}

/** Check one tree against the oracle at @p probe, lookup work included. */
void
expectLookupMatches(const net::PrefixTree<int> &tree,
                    const oracle::LinearLpm<int> &reference,
                    net::Ipv4Address probe, const char *which)
{
    int visited = -1;
    const int *got = tree.matchLongest(probe, &visited);
    const int *expect = reference.lookup(probe);
    ASSERT_EQ(got != nullptr, expect != nullptr)
        << which << " probe " << probe.toString();
    if (got) {
        EXPECT_EQ(*got, *expect) << which << " probe " << probe.toString();
    }
    EXPECT_EQ(visited, reference.unibitNodes(probe))
        << which << " probe " << probe.toString();
}

/** forEach order and content equal the oracle's sorted entries. */
void
expectOrderMatches(const net::PrefixTree<int> &tree,
                   const oracle::LinearLpm<int> &reference,
                   const char *which)
{
    EXPECT_EQ(collect(tree), reference.sorted()) << which;
}

} // namespace

/**
 * Lockstep property test: the indexed tree (the FIB and snapshot
 * configuration) and the unindexed one (RIBs, prefix-lists) run the
 * same random insert/replace/erase stream as the linear oracle; after
 * every step, lookups (value and modelled unibit depth) at the touched
 * prefix's edges and at random probes, find() and forEach order must
 * agree with it.
 */
class PrefixTreeIndexLockstep : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(PrefixTreeIndexLockstep, IndexedAndUnindexedMatchLinearOracle)
{
    workload::Rng rng(GetParam());
    net::PrefixTree<int> indexed;
    indexed.enableRootIndex();
    net::PrefixTree<int> plain;
    oracle::LinearLpm<int> reference;

    // A small pool makes re-inserts after erases (and the prunes they
    // cascade) frequent; the default route is always in it.
    std::vector<net::Prefix> pool = {pfx("0.0.0.0/0")};
    for (int i = 0; i < 48; ++i)
        pool.push_back(indexStressPrefix(rng));

    for (int step = 0; step < 3000; ++step) {
        const net::Prefix prefix = pool[rng.below(pool.size())];
        if (rng.below(20) < 9) {
            const bool present = reference.remove(prefix);
            ASSERT_EQ(indexed.erase(prefix), present) << "step " << step;
            ASSERT_EQ(plain.erase(prefix), present) << "step " << step;
        } else {
            bool inIndexed = false;
            bool inPlain = false;
            const bool fresh = reference.insert(prefix, step);
            indexed.insert(prefix, step, &inIndexed);
            plain.insert(prefix, step, &inPlain);
            ASSERT_EQ(inIndexed, fresh) << "step " << step;
            ASSERT_EQ(inPlain, fresh) << "step " << step;
        }
        ASSERT_EQ(indexed.size(), reference.size());
        ASSERT_EQ(plain.size(), reference.size());

        const int *want = reference.exact(prefix);
        for (const net::PrefixTree<int> *tree : {&indexed, &plain}) {
            const int *got = tree->find(prefix);
            ASSERT_EQ(got != nullptr, want != nullptr) << "step " << step;
            if (got) {
                EXPECT_EQ(*got, *want);
            }
        }

        const uint32_t first = prefix.address().toUint32();
        const uint32_t last = first | ~net::maskForLength(prefix.length());
        std::vector<net::Ipv4Address> probes = {
            net::Ipv4Address(first), net::Ipv4Address(last),
            net::Ipv4Address(first - 1), net::Ipv4Address(last + 1)};
        for (int i = 0; i < 6; ++i)
            probes.push_back(indexStressPrefix(rng).address());
        probes.push_back(net::Ipv4Address(uint32_t(rng.next())));
        for (net::Ipv4Address probe : probes) {
            expectLookupMatches(indexed, reference, probe, "indexed");
            expectLookupMatches(plain, reference, probe, "plain");
        }
        expectOrderMatches(indexed, reference, "indexed");
        expectOrderMatches(plain, reference, "plain");
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step << " on "
                   << prefix.toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTreeIndexLockstep,
                         ::testing::Values(1, 7, 42, 1234));

TEST(PrefixTree, RootIndexSurvivesCascadingPruneAndReinsert)
{
    net::PrefixTree<int> tree;
    tree.enableRootIndex();
    oracle::LinearLpm<int> reference;
    auto insert = [&](const char *text, int value) {
        tree.insert(pfx(text), value);
        reference.insert(pfx(text), value);
    };
    auto erase = [&](const char *text) {
        EXPECT_TRUE(tree.erase(pfx(text)));
        reference.remove(pfx(text));
    };
    // Every /16 slot of 10.0.0.0/8, at both of its edges.
    auto sweep = [&](const char *when) {
        for (uint32_t slot = 0; slot < 256; ++slot) {
            const uint32_t low = 0x0a000000u | (slot << 16);
            expectLookupMatches(tree, reference, net::Ipv4Address(low),
                                when);
            expectLookupMatches(tree, reference,
                                net::Ipv4Address(low | 0xffffu), when);
        }
    };

    // Two /10s under a valueless /9 joint, beside a /9 under a
    // valueless /8 joint: every node here lives in the index.
    insert("10.0.0.0/10", 1);
    insert("10.64.0.0/10", 2);
    insert("10.128.0.0/9", 3);
    EXPECT_EQ(tree.nodeCount(), 6u);
    sweep("built");

    // Each erase frees a leaf and splices the joint above it.
    erase("10.0.0.0/10");
    EXPECT_EQ(tree.nodeCount(), 4u);
    sweep("first prune");
    erase("10.64.0.0/10");
    EXPECT_EQ(tree.nodeCount(), 2u);
    sweep("second prune");

    // Re-inserts recycle the freed nodes; the default route comes and
    // goes underneath everything.
    insert("0.0.0.0/0", 0);
    sweep("default added");
    insert("10.0.0.0/10", 4);
    insert("10.0.0.0/16", 5);
    insert("10.64.0.0/10", 6);
    EXPECT_EQ(tree.nodeCount(), 7u);
    sweep("reinserted");
    erase("0.0.0.0/0");
    sweep("default removed");
    erase("10.0.0.0/10");
    sweep("middle removed");
    EXPECT_EQ(tree.matchLongest(addr("10.1.0.1")), nullptr);
    EXPECT_EQ(*tree.matchLongest(addr("10.0.0.1")), 5);
}

TEST(PrefixTree, EnablingTheIndexAfterABulkLoad)
{
    // The snapshot path: load unindexed, then index once.
    net::PrefixTree<int> tree;
    oracle::LinearLpm<int> reference;
    workload::Rng rng(99);
    for (int i = 0; i < 400; ++i) {
        const net::Prefix prefix = indexStressPrefix(rng);
        tree.insert(prefix, i);
        reference.insert(prefix, i);
    }
    const size_t unindexed = tree.memoryBytes();
    tree.enableRootIndex();
    EXPECT_EQ(tree.memoryBytes(), unindexed + 2 * 65536 * sizeof(uint32_t));
    for (int i = 0; i < 4000; ++i) {
        expectLookupMatches(tree, reference,
                            indexStressPrefix(rng).address(), "bulk");
    }
    // clear() keeps the index, reset to the empty tree.
    tree.clear();
    EXPECT_EQ(tree.memoryBytes(), unindexed + 2 * 65536 * sizeof(uint32_t));
    EXPECT_EQ(tree.matchLongest(addr("10.0.0.1")), nullptr);
    tree.insert(pfx("10.0.0.0/8"), 8);
    EXPECT_EQ(*tree.matchLongest(addr("10.0.0.1")), 8);
}

TEST(PrefixTree, ForEachCoveringVisitsShortestFirst)
{
    net::PrefixTree<int> tree;
    tree.insert(pfx("0.0.0.0/0"), 0);
    tree.insert(pfx("10.0.0.0/8"), 8);
    tree.insert(pfx("10.1.0.0/16"), 16);
    tree.insert(pfx("10.1.2.0/24"), 24);
    tree.insert(pfx("10.2.0.0/16"), 99); // a sibling, never covering

    std::vector<std::pair<int, int>> seen;
    tree.forEachCovering(pfx("10.1.2.0/24"), [&](int length, int value) {
        seen.emplace_back(length, value);
    });
    const std::vector<std::pair<int, int>> expect = {
        {0, 0}, {8, 8}, {16, 16}, {24, 24}};
    EXPECT_EQ(seen, expect);

    // A prefix shorter than the stored ones is covered only by /0.
    seen.clear();
    tree.forEachCovering(pfx("10.0.0.0/7"), [&](int length, int value) {
        seen.emplace_back(length, value);
    });
    EXPECT_EQ(seen, (std::vector<std::pair<int, int>>{{0, 0}}));
}
