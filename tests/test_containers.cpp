// Tests for the distributed containers built on the mailbox (containers/).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include "apps/connected_components.hpp"
#include "containers/array.hpp"
#include "containers/bag.hpp"
#include "containers/counting_set.hpp"
#include "containers/disjoint_set.hpp"
#include "containers/map.hpp"
#include "core/ygm.hpp"

namespace {

namespace sim = ygm::mpisim;
using ygm::core::comm_world;
using ygm::routing::scheme_kind;
using ygm::routing::topology;

// -------------------------------------------------------------------- bag

TEST(Bag, InsertsAreCountedAndGatherable) {
  ygm::launch({.nranks = 8}, [](sim::comm& c) {
    comm_world world(c, 4, scheme_kind::nlnr);
    ygm::container::bag<std::uint64_t> b(world);
    for (int i = 0; i < 100; ++i) {
      b.async_insert(static_cast<std::uint64_t>(c.rank()) * 1000 +
                     static_cast<std::uint64_t>(i));
    }
    b.wait_empty();
    EXPECT_EQ(b.global_size(), 800u);

    auto all = b.gather_all();
    ASSERT_EQ(all.size(), 800u);
    std::sort(all.begin(), all.end());
    EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) == all.end())
        << "an item was duplicated or lost";
  });
}

TEST(Bag, SpreadsLoadAcrossRanks) {
  ygm::launch({.nranks = 8}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_remote);
    ygm::container::bag<int> b(world);
    for (int i = 0; i < 500; ++i) b.async_insert(i);
    b.wait_empty();
    // 4000 items over 8 ranks: each shard should be within 3x of fair share.
    EXPECT_GT(b.local_size(), 500u / 3);
    EXPECT_LT(b.local_size(), 3u * 500u);
    c.barrier();
  });
}

TEST(Bag, LocalInsertSkipsCommunication) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    ygm::container::bag<std::string> b(world);
    b.local_insert("mine");
    b.wait_empty();
    EXPECT_EQ(b.local_size(), 1u);
    EXPECT_EQ(b.global_size(), 2u);
  });
}

// ----------------------------------------------------------- counting_set

TEST(CountingSet, CountsDuplicatesAcrossRanks) {
  ygm::launch({.nranks = 8}, [](sim::comm& c) {
    comm_world world(c, 4, scheme_kind::node_local);
    ygm::container::counting_set<std::string> cs(world);
    // Every rank inserts "common" 10 times and a private key once.
    for (int i = 0; i < 10; ++i) cs.async_insert("common");
    cs.async_insert("rank-" + std::to_string(c.rank()));
    cs.wait_empty();

    EXPECT_EQ(cs.global_total(), 8u * 10 + 8);
    EXPECT_EQ(cs.global_unique(), 1u + 8);

    const auto top = cs.top_k(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(top[0].first, "common");
    EXPECT_EQ(top[0].second, 80u);
  });
}

TEST(CountingSet, TopKIsIdenticalOnEveryRank) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::nlnr);
    ygm::container::counting_set<std::uint64_t> cs(world);
    // Key k gets k inserts (spread over ranks).
    for (std::uint64_t k = 1; k <= 20; ++k) {
      for (std::uint64_t i = 0; i < k; ++i) {
        if (static_cast<int>(i % static_cast<std::uint64_t>(c.size())) ==
            c.rank()) {
          cs.async_insert(k);
        }
      }
    }
    cs.wait_empty();
    const auto top = cs.top_k(3);
    ASSERT_EQ(top.size(), 3u);
    EXPECT_EQ(top[0], (std::pair<std::uint64_t, std::uint64_t>{20, 20}));
    EXPECT_EQ(top[1], (std::pair<std::uint64_t, std::uint64_t>{19, 19}));
    EXPECT_EQ(top[2], (std::pair<std::uint64_t, std::uint64_t>{18, 18}));
  });
}

// -------------------------------------------------------------------- map

TEST(Map, InsertAndGetRoundTrip) {
  ygm::launch({.nranks = 8}, [](sim::comm& c) {
    comm_world world(c, 4, scheme_kind::node_remote);
    ygm::container::map<std::string, std::uint64_t> m(world);
    m.async_insert("key-" + std::to_string(c.rank()),
                   static_cast<std::uint64_t>(c.rank()) * 7);
    m.wait_empty();
    EXPECT_EQ(m.global_size(), 8u);

    // Every rank reads every key.
    std::map<std::string, std::uint64_t> got;
    int misses = 0;
    for (int r = 0; r < c.size(); ++r) {
      m.async_get("key-" + std::to_string(r),
                  [&](const std::string& k, std::optional<std::uint64_t> v) {
                    if (v) {
                      got[k] = *v;
                    } else {
                      ++misses;
                    }
                  });
    }
    m.async_get("absent", [&](const std::string&,
                              std::optional<std::uint64_t> v) {
      if (!v) ++misses;
    });
    m.wait_empty();
    EXPECT_EQ(misses, 1);
    ASSERT_EQ(got.size(), 8u);
    for (int r = 0; r < c.size(); ++r) {
      EXPECT_EQ(got["key-" + std::to_string(r)],
                static_cast<std::uint64_t>(r) * 7);
    }
  });
}

TEST(Map, ReducerAccumulates) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_local);
    ygm::container::map<std::uint64_t, std::uint64_t> m(
        world, [](const std::uint64_t& a, const std::uint64_t& b) {
          return a + b;
        });
    for (std::uint64_t k = 0; k < 10; ++k) {
      m.async_reduce(k, static_cast<std::uint64_t>(c.rank()) + 1);
    }
    m.wait_empty();
    // Each key accumulated 1+2+3+4 = 10.
    std::uint64_t local_sum = 0;
    m.for_all([&](const std::uint64_t&, const std::uint64_t& v) {
      local_sum += v;
    });
    const auto total = c.allreduce(local_sum, sim::op_sum{});
    EXPECT_EQ(total, 100u);
  });
}

TEST(Map, EraseRemovesKeys) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::nlnr);
    ygm::container::map<int, int> m(world);
    if (c.rank() == 0) {
      for (int k = 0; k < 20; ++k) m.async_insert(k, k);
    }
    m.wait_empty();
    if (c.rank() == 1) {
      for (int k = 0; k < 20; k += 2) m.async_erase(k);
    }
    m.wait_empty();
    EXPECT_EQ(m.global_size(), 10u);
  });
}

TEST(Map, GetCallbacksMayChainFurtherGets) {
  // Reply callbacks issuing new requests exercise the multi-round
  // wait_empty protocol.
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_remote);
    ygm::container::map<int, int> m(world);
    if (c.rank() == 0) {
      for (int k = 0; k < 8; ++k) m.async_insert(k, k + 1);
    }
    m.wait_empty();

    int chain_end = -1;
    std::function<void(const int&, std::optional<int>)> chase =
        [&](const int&, std::optional<int> v) {
          if (v && *v < 8) {
            m.async_get(*v, chase);
          } else {
            chain_end = v ? *v : -2;
          }
        };
    if (c.rank() == 0) m.async_get(0, chase);
    m.wait_empty();
    if (c.rank() == 0) {
      EXPECT_EQ(chain_end, 8);  // followed 0 -> 1 -> ... -> 7 -> 8(absent? no: value 8 ends)
    }
  });
}

// ------------------------------------------------------------------ array

TEST(Array, SetAndAddResolveThroughReducer) {
  ygm::launch({.nranks = 6}, [](sim::comm& c) {
    comm_world world(c, 3, scheme_kind::node_local);
    ygm::container::array<double> a(world, 50, 0.0);
    // Everyone adds 1.5 to every slot.
    for (std::uint64_t i = 0; i < 50; ++i) a.async_add(i, 1.5);
    a.wait_empty();
    const auto all = a.gather_all();
    for (const auto v : all) EXPECT_DOUBLE_EQ(v, 9.0);

    if (c.rank() == 0) a.async_set(7, -1.0);
    a.wait_empty();
    EXPECT_DOUBLE_EQ(a.gather_all()[7], -1.0);
  });
}

TEST(Array, CustomReducerTakesMax) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::nlnr);
    ygm::container::array<int> a(
        world, 10, 0, [](const int& x, const int& y) { return std::max(x, y); });
    for (std::uint64_t i = 0; i < 10; ++i) {
      a.async_add(i, c.rank() * 100 + static_cast<int>(i));
    }
    a.wait_empty();
    const auto all = a.gather_all();
    for (std::uint64_t i = 0; i < 10; ++i) {
      EXPECT_EQ(all[i], 300 + static_cast<int>(i));
    }
  });
}

TEST(Array, RejectsOutOfRangeIndex) {
  ygm::launch({.nranks = 2}, [](sim::comm& c) {
    comm_world world(c, 1, scheme_kind::no_route);
    ygm::container::array<int> a(world, 5);
    EXPECT_THROW(a.async_set(5, 1), ygm::error);
    a.wait_empty();
  });
}

// ----------------------------------------------------------- disjoint_set

TEST(DisjointSet, UnionsMergeAcrossRanks) {
  ygm::launch({.nranks = 8}, [](sim::comm& c) {
    comm_world world(c, 4, scheme_kind::node_remote);
    ygm::container::disjoint_set ds(world, 100);
    EXPECT_EQ(ds.num_sets(), 100u);

    // Chain 0-1-2-...-49 built collaboratively (each rank a stripe).
    for (std::uint64_t v = 0; v + 1 < 50; ++v) {
      if (static_cast<int>(v % static_cast<std::uint64_t>(c.size())) ==
          c.rank()) {
        ds.async_union(v, v + 1);
      }
    }
    ds.wait_empty();
    EXPECT_EQ(ds.num_sets(), 51u);  // one big set + 50 singletons

    ds.compress();
    // After compression every member of the chain is labelled 0.
    const auto& part = ds.partition();
    for (std::uint64_t j = 0; j < ds.local_parents().size(); ++j) {
      const std::uint64_t id = part.global_id(c.rank(), j);
      EXPECT_EQ(ds.local_parents()[j], id < 50 ? 0u : id);
    }
  });
}

TEST(DisjointSet, RandomUnionsMatchSerialOracle) {
  const std::uint64_t n = 200;
  // Shared random edge set.
  ygm::xoshiro256 rng(1234);
  std::vector<ygm::graph::edge> edges;
  for (int i = 0; i < 150; ++i) {
    edges.push_back({rng.below(n), rng.below(n)});
  }
  const auto oracle =
      ygm::apps::connected_components_reference(n, edges);

  ygm::launch({.nranks = 6}, [&](sim::comm& c) {
    comm_world world(c, 3, scheme_kind::nlnr);
    ygm::container::disjoint_set ds(world, n);
    for (std::size_t i = 0; i < edges.size(); ++i) {
      if (static_cast<int>(i % static_cast<std::size_t>(c.size())) ==
          c.rank()) {
        ds.async_union(edges[i].src, edges[i].dst);
      }
    }
    ds.wait_empty();
    ds.compress();
    const auto& part = ds.partition();
    for (std::uint64_t j = 0; j < ds.local_parents().size(); ++j) {
      const std::uint64_t id = part.global_id(c.rank(), j);
      EXPECT_EQ(ds.local_parents()[j], oracle[id]) << "vertex " << id;
    }
  });
}

TEST(DisjointSet, SelfUnionAndRepeatsAreIdempotent) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::node_local);
    ygm::container::disjoint_set ds(world, 10);
    for (int rep = 0; rep < 5; ++rep) {
      ds.async_union(3, 3);
      ds.async_union(2, 7);
      ds.async_union(7, 2);
    }
    ds.wait_empty();
    EXPECT_EQ(ds.num_sets(), 9u);
    EXPECT_THROW(ds.async_union(0, 10), ygm::error);
    ds.wait_empty();
  });
}

}  // namespace
// ------------------------------------------------------------------- set
// (appended with the container)
#include "containers/set.hpp"

namespace {

TEST(Set, InsertContainsEraseLifecycle) {
  ygm::launch({.nranks = 6}, [](sim::comm& c) {
    comm_world world(c, 3, scheme_kind::node_remote);
    ygm::container::set<std::string> s(world);
    s.async_insert("shared");
    s.async_insert("rank-" + std::to_string(c.rank()));
    s.wait_empty();
    // Duplicates collapse: 1 shared + 6 per-rank keys.
    EXPECT_EQ(s.global_size(), 7u);

    int found = 0;
    int missing = 0;
    s.async_contains("shared", [&](const std::string&, bool f) {
      f ? ++found : ++missing;
    });
    s.async_contains("absent", [&](const std::string&, bool f) {
      f ? ++found : ++missing;
    });
    s.wait_empty();
    EXPECT_EQ(found, 1);
    EXPECT_EQ(missing, 1);

    if (c.rank() == 0) s.async_erase("shared");
    s.wait_empty();
    EXPECT_EQ(s.global_size(), 6u);
  });
}

TEST(Set, ContainsCallbackMayChainInserts) {
  ygm::launch({.nranks = 4}, [](sim::comm& c) {
    comm_world world(c, 2, scheme_kind::nlnr);
    ygm::container::set<int> s(world);
    if (c.rank() == 0) s.async_insert(0);
    s.wait_empty();

    // Chase: if k exists, insert k+1 and check it (stop at 5).
    std::function<void(const int&, bool)> chase = [&](const int& k, bool f) {
      if (f && k < 5) {
        s.async_insert(k + 1);
        s.async_contains(k + 1, chase);
      }
    };
    if (c.rank() == 0) s.async_contains(0, chase);
    s.wait_empty();
    EXPECT_EQ(s.global_size(), 6u);  // 0..5
  });
}

TEST(Set, ConcurrentInsertsFromAllRanksConverge) {
  ygm::launch({.nranks = 8}, [](sim::comm& c) {
    comm_world world(c, 4, scheme_kind::node_local);
    ygm::container::set<std::uint64_t> s(world, 64);
    ygm::xoshiro256 rng(6 + static_cast<std::uint64_t>(c.rank()));
    for (int i = 0; i < 200; ++i) s.async_insert(rng.below(100));
    s.wait_empty();
    // All 100 keys almost surely hit; at minimum the size is bounded by it.
    EXPECT_LE(s.global_size(), 100u);
    EXPECT_GT(s.global_size(), 90u);
  });
}

}  // namespace
