// Property tests for dynamic variable reordering (sifting): a reorder must
// preserve every outstanding Ref's function - satCount, ISOP covers,
// pickCube and full-assignment evaluation all agree with a pre-reorder
// clone of the same functions in an untouched manager - and the budget
// contract (BddLimitExceeded, governor ledger semantics) must survive a
// reorder triggered mid-workload.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bdd/bdd.hpp"
#include "util/budget.hpp"
#include "util/rng.hpp"

namespace syseco {
namespace {

/// Builds the same random function pool in `mgr` via layered random ops.
/// Deterministic in (rng seed, numVars, rounds).
std::vector<Bdd::Ref> buildRandomPool(Bdd& mgr, Rng& rng, std::uint32_t rounds) {
  std::vector<Bdd::Ref> pool;
  for (std::uint32_t v = 0; v < mgr.numVars(); ++v) pool.push_back(mgr.var(v));
  for (std::uint32_t i = 0; i < rounds; ++i) {
    const Bdd::Ref a = pool[rng.next() % pool.size()];
    const Bdd::Ref b = pool[rng.next() % pool.size()];
    const Bdd::Ref c = pool[rng.next() % pool.size()];
    switch (rng.next() % 5) {
      case 0: pool.push_back(mgr.bAnd(a, b)); break;
      case 1: pool.push_back(mgr.bOr(a, b)); break;
      case 2: pool.push_back(mgr.bXor(a, b)); break;
      case 3: pool.push_back(mgr.bNot(a)); break;
      default: pool.push_back(mgr.ite(a, b, c)); break;
    }
  }
  return pool;
}

/// Exhaustive function fingerprint (truth table) of f.
std::vector<bool> truthOf(const Bdd& mgr, Bdd::Ref f) {
  const std::uint32_t n = mgr.numVars();
  std::vector<bool> tt;
  tt.reserve(std::size_t{1} << n);
  std::vector<std::uint8_t> a(n, 0);
  for (std::uint64_t k = 0; k < (1ULL << n); ++k) {
    for (std::uint32_t j = 0; j < n; ++j) a[j] = (k >> j) & 1;
    tt.push_back(mgr.eval(f, a));
  }
  return tt;
}

TEST(BddReorder, SiftPreservesFunctionsAcrossRandomManagers) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rngA(seed), rngB(seed);
    const std::uint32_t numVars = 6 + seed % 5;
    Bdd mgr(numVars);
    Bdd clone(numVars);  // untouched reference manager
    auto pool = buildRandomPool(mgr, rngA, 40);
    auto ref = buildRandomPool(clone, rngB, 40);
    ASSERT_EQ(pool.size(), ref.size());

    // Pre-reorder fingerprints from the clone.
    std::vector<double> counts;
    std::vector<std::size_t> isopSizes;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      counts.push_back(clone.satCount(ref[i]));
      isopSizes.push_back(clone.isop(ref[i]).size());
    }

    const std::size_t live = mgr.reorderNow(pool);
    EXPECT_GT(mgr.stats().reorders, 0u);
    EXPECT_LE(live, mgr.nodeCount());

    for (std::size_t i = 0; i < pool.size(); ++i) {
      // Function identity: exhaustive truth tables agree.
      EXPECT_EQ(truthOf(mgr, pool[i]), truthOf(clone, ref[i]))
          << "seed " << seed << " fn " << i;
      // satCount is order-independent.
      EXPECT_DOUBLE_EQ(mgr.satCount(pool[i]), counts[i]);
      // An ISOP cover taken after the reorder is still a valid cover of
      // the same function (isop() self-checks cover bounds internally)
      // and cube-for-cube evaluates inside the onset.
      const auto cubes = mgr.isop(pool[i]);
      if (counts[i] == 0.0) EXPECT_TRUE(cubes.empty());
      for (const auto& cube : cubes) {
        // Every completion of the cube satisfies the function: check the
        // all-zeros and all-ones completions of the don't-cares.
        for (int fill = 0; fill <= 1; ++fill) {
          std::vector<std::uint8_t> a(numVars, 0);
          for (std::uint32_t v = 0; v < numVars; ++v)
            a[v] = cube.lits[v] >= 0 ? static_cast<std::uint8_t>(cube.lits[v])
                                     : static_cast<std::uint8_t>(fill);
          EXPECT_TRUE(mgr.eval(pool[i], a));
        }
      }
      // pickCube yields a satisfying cube iff the function is satisfiable.
      BddCube cube;
      const bool sat = mgr.pickCube(pool[i], cube);
      EXPECT_EQ(sat, counts[i] > 0.0);
      if (sat) {
        for (int fill = 0; fill <= 1; ++fill) {
          std::vector<std::uint8_t> a(numVars, 0);
          for (std::uint32_t v = 0; v < numVars; ++v)
            a[v] = cube.lits[v] >= 0 ? static_cast<std::uint8_t>(cube.lits[v])
                                     : static_cast<std::uint8_t>(fill);
          EXPECT_TRUE(mgr.eval(pool[i], a));
        }
      }
    }

    // The level/var permutations stay mutually inverse.
    for (std::uint32_t v = 0; v < numVars; ++v)
      EXPECT_EQ(mgr.varAt(mgr.levelOf(v)), v);
  }
}

TEST(BddReorder, ReorderShrinksAnInterleavedComparator) {
  // f = AND_i (a_i == b_i) with interleaving-hostile order a0..a3 b0..b3:
  // the identity order needs exponentially many nodes, the interleaved
  // order is linear - sifting must find (most of) that reduction.
  const std::uint32_t k = 5;
  Bdd mgr(2 * k);
  Bdd::Ref f = Bdd::kTrue;
  for (std::uint32_t i = 0; i < k; ++i)
    f = mgr.bAnd(f, mgr.bXnor(mgr.var(i), mgr.var(k + i)));
  const std::size_t before = mgr.nodeCount();
  const std::size_t live = mgr.reorderNow({f});
  EXPECT_LT(live, before / 2);
  // Function must survive verbatim.
  std::vector<std::uint8_t> a(2 * k, 0);
  EXPECT_TRUE(mgr.eval(f, a));
  a[0] = 1;
  EXPECT_FALSE(mgr.eval(f, a));
  a[k] = 1;
  EXPECT_TRUE(mgr.eval(f, a));
}

TEST(BddReorder, AutoReorderTriggersViaRootProvider) {
  BddConfig cfg;
  cfg.reorder = BddReorder::kSift;
  cfg.reorderThreshold = 64;
  Bdd mgr(12, cfg);
  std::vector<Bdd::Ref> roots;
  mgr.setRootProvider([&](std::vector<Bdd::Ref>& out) {
    out.insert(out.end(), roots.begin(), roots.end());
  });
  Bdd::Ref f = Bdd::kTrue;
  roots.push_back(f);
  for (std::uint32_t i = 0; i < 6; ++i) {
    f = mgr.bAnd(f, mgr.bXnor(mgr.var(i), mgr.var(6 + i)));
    roots.back() = f;
  }
  EXPECT_GT(mgr.stats().reorders, 0u);
  std::vector<std::uint8_t> a(12, 1);
  EXPECT_TRUE(mgr.eval(f, a));
}

TEST(BddReorder, LimitStillFiresUnderTightBudgetMidReorder) {
  // A manager with a node limit small enough to trip during sifting must
  // leave the table consistent: the reorder aborts, outstanding functions
  // stay intact, and the *next* oversized operation still throws.
  BddConfig cfg;
  cfg.nodeLimit = 900;
  Bdd mgr(14, cfg);
  Rng rng(7);
  std::vector<Bdd::Ref> pool;
  try {
    pool = buildRandomPool(mgr, rng, 60);
  } catch (const BddLimitExceeded&) {
    // Pool construction itself may trip; whatever was built is enough.
    for (std::uint32_t v = 0; v < mgr.numVars(); ++v)
      pool.push_back(mgr.var(v));
  }
  std::vector<std::vector<bool>> before;
  for (Bdd::Ref r : pool) before.push_back(truthOf(mgr, r));
  // Reorder near the limit: sift allocations may trip BddLimitExceeded
  // internally; reorderNow absorbs it and stays consistent.
  mgr.reorderNow(pool);
  for (std::size_t i = 0; i < pool.size(); ++i)
    EXPECT_EQ(truthOf(mgr, pool[i]), before[i]);
  // The limit semantics survive: an operation that needs many fresh nodes
  // still reports exhaustion rather than corrupting the table.
  try {
    Bdd::Ref g = Bdd::kFalse;
    for (std::uint64_t i = 0; i < 2000; ++i) {
      std::vector<std::uint64_t> bits{0x9e3779b97f4a7c15ULL * (i + 1)};
      g = mgr.bXor(g, mgr.fromTruthTable(bits, {0, 1, 2, 3, 4, 5}));
    }
  } catch (const BddLimitExceeded&) {
    SUCCEED();
    return;
  }
  FAIL() << "node limit never fired";
}

TEST(BddReorder, GovernorDeadlineUnwindsNotSwallowed) {
  // StatusError{kDeadlineExceeded} must pass through reordering untouched
  // (only BddLimitExceeded is absorbed as shrink-and-retry).
  ResourceGuard guard(ResourceGuard::Limits{.deadlineSeconds = 1e-9});
  BddConfig cfg;
  cfg.reorder = BddReorder::kSift;
  cfg.reorderThreshold = 16;
  Bdd mgr(10, cfg);
  std::vector<Bdd::Ref> roots;
  mgr.setRootProvider([&](std::vector<Bdd::Ref>& out) { out = roots; });
  mgr.setResourceGuard(&guard);
  EXPECT_THROW(
      {
        Bdd::Ref f = Bdd::kTrue;
        for (std::uint32_t i = 0; i < 5; ++i) {
          f = mgr.bAnd(f, mgr.bXnor(mgr.var(i), mgr.var(5 + i)));
          roots.assign(1, f);
        }
      },
      StatusError);
}

TEST(BddReorder, OffModeMatchesLegacyNodeForNode) {
  // reorder=off with any cache sizing must allocate the identical node
  // sequence (Ref values included): the unique table deduplicates, so the
  // cache policy cannot change which nodes exist.
  BddConfig tiny;
  tiny.cacheBits = 4;
  tiny.maxCacheBits = 5;
  Bdd a(9);
  Bdd b(9, tiny);
  Rng ra(42), rb(42);
  const auto pa = buildRandomPool(a, ra, 80);
  const auto pb = buildRandomPool(b, rb, 80);
  ASSERT_EQ(pa.size(), pb.size());
  EXPECT_EQ(a.nodeCount(), b.nodeCount());
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
  EXPECT_GT(b.stats().cacheMisses, 0u);
}

TEST(BddReorder, CompositeOpsSurviveAggressiveAutoReorder) {
  // bXor/bXnor chain two ite steps and mintermOf chains a whole literal
  // product; their intermediates are reachable from no caller-held root.
  // With a reorder armed at every operation boundary, any intermediate
  // that leaks across a boundary gets detached and corrupts the result -
  // the composite ops must therefore run each chain under one scope.
  BddConfig cfg;
  cfg.reorder = BddReorder::kSift;
  cfg.reorderThreshold = 1;
  cfg.reorderGrowth = 1.0;  // re-arm immediately after every reorder
  Bdd mgr(10, cfg);
  Bdd ref(10);  // untouched identity-order reference
  std::vector<Bdd::Ref> roots;
  mgr.setRootProvider([&](std::vector<Bdd::Ref>& out) {
    out.insert(out.end(), roots.begin(), roots.end());
  });
  Rng rngA(5), rngB(5);
  auto pool = buildRandomPool(mgr, rngA, 30);
  auto pref = buildRandomPool(ref, rngB, 30);
  roots = pool;
  for (std::uint32_t i = 0; i < 20; ++i) {
    const std::size_t x = i % pool.size();
    const std::size_t y = (i * 7 + 3) % pool.size();
    Bdd::Ref r;
    Bdd::Ref rr;
    switch (i % 3) {
      case 0:
        r = mgr.bXor(pool[x], pool[y]);
        rr = ref.bXor(pref[x], pref[y]);
        break;
      case 1:
        r = mgr.bXnor(pool[x], pool[y]);
        rr = ref.bXnor(pref[x], pref[y]);
        break;
      default: {
        const std::vector<std::uint32_t> vars{0, 3, 5, 7};
        r = mgr.mintermOf(i % 16, vars);
        rr = ref.mintermOf(i % 16, vars);
        break;
      }
    }
    pool.push_back(r);
    pref.push_back(rr);
    roots = pool;
    EXPECT_EQ(truthOf(mgr, r), truthOf(ref, rr)) << "op " << i;
  }
  EXPECT_GT(mgr.stats().reorders, 0u);
}

TEST(BddReorder, SwapWorkIgnoresGarbage) {
  // Two managers hold the same roots; one first builds and drops a large
  // random pool. Sifting must cost what the live graph costs: the swaps
  // of both managers examine (within 10 %) the same number of nodes, no
  // matter how much dead weight the garbage manager's arena carries.
  const std::uint32_t n = 12;
  auto buildRoots = [&](Bdd& mgr) {
    Bdd::Ref f = Bdd::kTrue;
    for (std::uint32_t i = 0; i < n / 2; ++i)
      f = mgr.bAnd(f, mgr.bXnor(mgr.var(i), mgr.var(n / 2 + i)));
    Bdd::Ref g = Bdd::kFalse;
    for (std::uint32_t i = 0; i + 1 < n; i += 2)
      g = mgr.bOr(g, mgr.bAnd(mgr.var(i), mgr.var(i + 1)));
    return std::vector<Bdd::Ref>{f, g, mgr.bXor(f, g)};
  };
  Bdd clean(n);
  Bdd dirty(n);
  const auto cleanRoots = buildRoots(clean);
  Rng rng(11);
  buildRandomPool(dirty, rng, 400);  // dropped: garbage from here on
  const auto dirtyRoots = buildRoots(dirty);
  ASSERT_GE(dirty.nodeCount() - clean.nodeCount(), 10 * clean.nodeCount())
      << "not enough garbage";

  const std::size_t cleanLive = clean.reorderNow(cleanRoots);
  const std::size_t dirtyLive = dirty.reorderNow(dirtyRoots);
  EXPECT_EQ(cleanLive, dirtyLive);
  EXPECT_TRUE(clean.invariantsHold(cleanRoots));
  EXPECT_TRUE(dirty.invariantsHold(dirtyRoots));
  const double cleanVisits = static_cast<double>(clean.stats().swapVisits);
  const double dirtyVisits = static_cast<double>(dirty.stats().swapVisits);
  ASSERT_GT(cleanVisits, 0.0);
  EXPECT_LE(dirtyVisits, 1.1 * cleanVisits);
  EXPECT_GE(dirtyVisits, 0.9 * cleanVisits);
  for (std::size_t i = 0; i < cleanRoots.size(); ++i)
    EXPECT_EQ(truthOf(clean, cleanRoots[i]), truthOf(dirty, dirtyRoots[i]));
}

TEST(BddReorder, RandomReorderDifferential) {
  // Random ops that keep dropping results (garbage for the arena) under
  // a reorder at every operation boundary plus explicit reorderNow calls,
  // against an identity-order reference. Every kept root must match its
  // reference truth table, canonicity must stay exact (a XOR b is the
  // constant false exactly when a and b are the same function), and the
  // table invariants must hold after every reorder.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::uint32_t numVars = 6 + seed % 3;
    BddConfig cfg;
    cfg.reorder = BddReorder::kSift;
    cfg.reorderThreshold = 1;
    cfg.reorderGrowth = 1.0;  // re-arm immediately after every reorder
    Bdd mgr(numVars, cfg);
    Bdd ref(numVars);
    std::vector<Bdd::Ref> pool, pref;
    mgr.setRootProvider([&](std::vector<Bdd::Ref>& out) {
      out.insert(out.end(), pool.begin(), pool.end());
    });
    for (std::uint32_t v = 0; v < numVars; ++v) {
      pool.push_back(mgr.var(v));
      pref.push_back(ref.var(v));
    }
    Rng rng(seed);
    std::uint64_t reordersSeen = mgr.stats().reorders;
    for (std::uint32_t step = 0; step < 120; ++step) {
      const std::size_t a = rng.next() % pool.size();
      const std::size_t b = rng.next() % pool.size();
      const std::size_t c = rng.next() % pool.size();
      Bdd::Ref r, rr;
      switch (rng.next() % 4) {
        case 0:
          r = mgr.bAnd(pool[a], pool[b]);
          rr = ref.bAnd(pref[a], pref[b]);
          break;
        case 1: {
          // !b crosses an operation boundary: pin it.
          Bdd::ScopedRef nb(mgr, mgr.bNot(pool[b]));
          r = mgr.bOr(pool[a], nb);
          rr = ref.bOr(pref[a], ref.bNot(pref[b]));
          break;
        }
        case 2:
          r = mgr.bXor(pool[a], pool[b]);
          rr = ref.bXor(pref[a], pref[b]);
          break;
        default:
          r = mgr.ite(pool[a], pool[b], pool[c]);
          rr = ref.ite(pref[a], pref[b], pref[c]);
          break;
      }
      // Keep one result in three; the rest become garbage at the next
      // reorder. Past 24 roots, the oldest non-literal root is dropped.
      if (rng.next() % 3 == 0) {
        pool.push_back(r);
        pref.push_back(rr);
        if (pool.size() > numVars + 24) {
          pool.erase(pool.begin() + numVars);
          pref.erase(pref.begin() + numVars);
        }
      }
      if (step % 17 == 0) mgr.reorderNow(pool);
      if (mgr.stats().reorders != reordersSeen) {
        reordersSeen = mgr.stats().reorders;
        ASSERT_TRUE(mgr.invariantsHold(pool))
            << "seed " << seed << " step " << step;
      }
    }
    EXPECT_GT(mgr.stats().reorders, 10u);
    std::vector<std::vector<bool>> tts;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      tts.push_back(truthOf(mgr, pool[i]));
      EXPECT_EQ(tts.back(), truthOf(ref, pref[i]))
          << "seed " << seed << " root " << i;
    }
    for (std::size_t i = 0; i < pool.size(); ++i) {
      for (std::size_t j = i + 1; j < pool.size(); ++j) {
        const Bdd::Ref x = mgr.bXor(pool[i], pool[j]);
        EXPECT_EQ(x == Bdd::kFalse, tts[i] == tts[j])
            << "seed " << seed << " roots " << i << "," << j;
      }
    }
    EXPECT_TRUE(mgr.invariantsHold(pool));
  }
}

/// Node-creation fingerprint of one auto-reorder workload.
struct CreationPin {
  std::size_t nodeCount, peakNodes;
  std::uint64_t uniqueHits, swaps, swapVisits;
};

/// RandomReorderDifferential's op mix (without the reference manager):
/// random AND/OR-NOT/XOR/ITE over a pool that keeps one result in three,
/// auto-reorder armed at `threshold`, an explicit reorderNow every 17
/// steps. Deterministic in its arguments.
CreationPin runCreationWorkload(std::uint64_t seed, std::uint32_t numVars,
                                std::uint32_t steps, std::size_t threshold,
                                double growth, std::size_t maxKept) {
  BddConfig cfg;
  cfg.reorder = BddReorder::kSift;
  cfg.reorderThreshold = threshold;
  cfg.reorderGrowth = growth;
  Bdd mgr(numVars, cfg);
  std::vector<Bdd::Ref> pool;
  mgr.setRootProvider([&](std::vector<Bdd::Ref>& out) {
    out.insert(out.end(), pool.begin(), pool.end());
  });
  for (std::uint32_t v = 0; v < numVars; ++v) pool.push_back(mgr.var(v));
  Rng rng(seed);
  for (std::uint32_t step = 0; step < steps; ++step) {
    const std::size_t a = rng.next() % pool.size();
    const std::size_t b = rng.next() % pool.size();
    const std::size_t c = rng.next() % pool.size();
    Bdd::Ref r;
    switch (rng.next() % 4) {
      case 0: r = mgr.bAnd(pool[a], pool[b]); break;
      case 1: {
        Bdd::ScopedRef nb(mgr, mgr.bNot(pool[b]));
        r = mgr.bOr(pool[a], nb);
        break;
      }
      case 2: r = mgr.bXor(pool[a], pool[b]); break;
      default: r = mgr.ite(pool[a], pool[b], pool[c]); break;
    }
    if (rng.next() % 3 == 0) {
      pool.push_back(r);
      if (pool.size() > numVars + maxKept) pool.erase(pool.begin() + numVars);
    }
    if (step % 17 == 0) mgr.reorderNow(pool);
  }
  const BddStats& s = mgr.stats();
  return {mgr.nodeCount(), s.peakNodes, s.uniqueHits, s.swaps, s.swapVisits};
}

TEST(BddReorder, NodeCreationIsPinned) {
  // The unique table's bucket count and load limit are performance
  // choices: node creation, dedup hits and the reorder schedule must not
  // move with them. The expected values were recorded with subtables
  // grown at two nodes per bucket; a change that alters which nodes
  // exist, or what sifting decides, shows up here as a mismatch.
  struct Case {
    std::uint64_t seed;
    std::uint32_t numVars, steps;
    std::size_t threshold;
    double growth;
    std::size_t maxKept;
    CreationPin want;
  };
  const Case cases[] = {
      // RandomReorderDifferential's seeds and settings.
      {1, 7, 120, 1, 1.0, 24, {845, 845, 54171, 8134, 95330}},
      {2, 8, 120, 1, 1.0, 24, {376, 376, 22029, 11642, 62724}},
      {3, 6, 120, 1, 1.0, 24, {437, 437, 26040, 5649, 48789}},
      {4, 7, 120, 1, 1.0, 24, {660, 660, 38405, 8965, 74566}},
      {5, 8, 120, 1, 1.0, 24, {492, 492, 24461, 12272, 69469}},
      {6, 6, 120, 1, 1.0, 24, {641, 641, 38207, 6014, 64417}},
      {7, 7, 120, 1, 1.0, 24, {820, 820, 25425, 7462, 49827}},
      {8, 8, 120, 1, 1.0, 24, {1083, 1083, 42704, 12314, 96945}},
      // Wider managers whose subtables grow many times over.
      {1, 14, 600, 256, 2.0, 48, {194016, 194016, 1184915, 11808, 1831858}},
      {2, 16, 600, 256, 2.0, 48, {235657, 235657, 1271175, 14979, 2177844}},
  };
  for (const Case& c : cases) {
    const CreationPin got = runCreationWorkload(
        c.seed, c.numVars, c.steps, c.threshold, c.growth, c.maxKept);
    SCOPED_TRACE("seed " + std::to_string(c.seed) + ", " +
                 std::to_string(c.numVars) + " vars");
    EXPECT_EQ(got.nodeCount, c.want.nodeCount);
    EXPECT_EQ(got.uniqueHits, c.want.uniqueHits);
    EXPECT_EQ(got.peakNodes, c.want.peakNodes);
    EXPECT_EQ(got.swaps, c.want.swaps);
    EXPECT_EQ(got.swapVisits, c.want.swapVisits);
  }
}

}  // namespace
}  // namespace syseco
