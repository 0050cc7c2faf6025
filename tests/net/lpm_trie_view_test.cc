/**
 * @file
 * Tests of net::PrefixTree as a longest-prefix-match index over
 * non-owning route views: the tree stores indexes/pointers into an
 * immutable route array instead of owning routes, which is how RIB
 * snapshots index their tables (bulk load, then the root index). The
 * suite names predate the tree.
 */

#include <gtest/gtest.h>

#include "fib/forwarding_table.hh"
#include "net/prefix.hh"
#include "net/prefix_tree.hh"
#include "support/linear_lpm.hh"

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

/** A route record the trie points into but does not own. */
struct RouteView
{
    net::Prefix prefix;
    int tag = 0;
};

} // namespace

TEST(LpmTrieView, DefaultRouteCatchesEverything)
{
    net::PrefixTree<int> trie;
    trie.insert(pfx("0.0.0.0/0"), 1);
    trie.insert(pfx("10.0.0.0/8"), 2);
    trie.enableRootIndex();

    const int *hit = trie.matchLongest(addr("192.168.1.1"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 1);

    hit = trie.matchLongest(addr("10.1.2.3"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 2);

    // Removing the default exposes true misses again.
    EXPECT_TRUE(trie.erase(pfx("0.0.0.0/0")));
    EXPECT_EQ(trie.matchLongest(addr("192.168.1.1")), nullptr);
}

TEST(LpmTrieView, ExactMatchDistinguishesLengths)
{
    net::PrefixTree<int> trie;
    trie.insert(pfx("10.0.0.0/8"), 8);
    trie.insert(pfx("10.0.0.0/16"), 16);
    trie.insert(pfx("10.0.0.0/24"), 24);

    const int *exact = trie.find(pfx("10.0.0.0/16"));
    ASSERT_NE(exact, nullptr);
    EXPECT_EQ(*exact, 16);

    // Same address, unregistered length: find() must miss even
    // though matchLongest() would match a shorter covering prefix.
    EXPECT_EQ(trie.find(pfx("10.0.0.0/20")), nullptr);
    EXPECT_EQ(trie.find(pfx("11.0.0.0/8")), nullptr);
}

TEST(LpmTrieView, NestedPrefixShadowing)
{
    net::PrefixTree<int> trie;
    trie.insert(pfx("10.0.0.0/8"), 8);
    trie.insert(pfx("10.1.0.0/16"), 16);
    trie.insert(pfx("10.1.1.0/24"), 24);
    trie.enableRootIndex();

    // The most specific covering prefix wins at each depth.
    EXPECT_EQ(*trie.matchLongest(addr("10.1.1.7")), 24);
    EXPECT_EQ(*trie.matchLongest(addr("10.1.2.7")), 16);
    EXPECT_EQ(*trie.matchLongest(addr("10.2.0.1")), 8);

    // Removing the middle prefix re-exposes the /8 for its range
    // without touching the deeper /24.
    EXPECT_TRUE(trie.erase(pfx("10.1.0.0/16")));
    EXPECT_EQ(*trie.matchLongest(addr("10.1.2.7")), 8);
    EXPECT_EQ(*trie.matchLongest(addr("10.1.1.7")), 24);
}

TEST(LpmTrieView, NonOwningPointerValues)
{
    // The snapshot pattern: an immutable route array plus a tree of
    // pointers into it. The tree never copies or frees the records.
    const RouteView routes[] = {
        {pfx("0.0.0.0/0"), 100},
        {pfx("172.16.0.0/12"), 200},
        {pfx("172.16.5.0/24"), 300},
    };
    net::PrefixTree<const RouteView *> trie;
    for (const RouteView &route : routes)
        trie.insert(route.prefix, &route);
    trie.enableRootIndex();
    EXPECT_EQ(trie.size(), 3u);

    const RouteView *const *hit = trie.matchLongest(addr("172.16.5.9"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, &routes[2]);
    EXPECT_EQ((*hit)->tag, 300);

    hit = trie.matchLongest(addr("172.17.0.1"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ((*hit)->tag, 200);

    hit = trie.matchLongest(addr("8.8.8.8"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ((*hit)->tag, 100);

    // forEach() walks every stored (prefix, value) pair, in order.
    std::vector<const RouteView *> entries;
    trie.forEach([&](const net::Prefix &, const RouteView *view) {
        entries.push_back(view);
    });
    ASSERT_EQ(entries.size(), 3u);
    EXPECT_EQ(entries[0], &routes[0]);
    EXPECT_EQ(entries[2], &routes[2]);
}

TEST(LpmTrieView, FibShimStaysUsable)
{
    // The FIB's wrapper over the same tree answers like the linear
    // oracle, lookup work included.
    oracle::LinearLpm<int> linear;
    linear.insert(pfx("10.0.0.0/8"), 1);
    linear.insert(pfx("10.0.0.0/24"), 2);
    const int *hit = linear.lookup(addr("10.0.0.1"));
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(*hit, 2);

    fib::ForwardingTable fib;
    fib.install(pfx("10.0.0.0/8"), fib::FibEntry{addr("192.0.2.1"), 1, {}});
    fib.install(pfx("10.0.0.0/24"), fib::FibEntry{addr("192.0.2.2"), 2, {}});
    int visited = 0;
    const fib::FibEntry *entry = fib.lookup(addr("10.0.0.1"), &visited);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->interface, 2u);
    EXPECT_EQ(visited, linear.unibitNodes(addr("10.0.0.1")));
    EXPECT_EQ(visited, 25);
}
