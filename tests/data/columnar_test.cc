// Tests for the column-major relation storage: arena growth, row-index
// dedup across erase/swap rewrites, iteration stability while inserting,
// TupleRef view validity, version-based index invalidation, and the erase
// journal: hash indexes and sorted views repaired from it must equal ones
// built fresh.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "data/relation.h"
#include "datalog/index.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }

TEST(ColumnArena, GrowthAcrossRounds) {
  // Simulates fixpoint behavior: many insert waves into one arity, far past
  // several hash-table rehashes and column reallocations.
  Relation r;
  constexpr int kRounds = 10;
  constexpr int kPerRound = 300;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPerRound; ++i) {
      EXPECT_TRUE(r.Insert(Tuple({I(round), I(i)})));
      EXPECT_FALSE(r.Insert(Tuple({I(round), I(i)})));  // immediate dup
    }
  }
  EXPECT_EQ(r.size(), static_cast<size_t>(kRounds * kPerRound));
  // Every tuple from every round is still findable after all the growth.
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < kPerRound; ++i) {
      EXPECT_TRUE(r.Contains(Tuple({I(round), I(i)})));
    }
  }
  EXPECT_FALSE(r.Contains(Tuple({I(kRounds), I(0)})));
  const ColumnArena* arena = r.ArenaOfArity(2);
  ASSERT_NE(arena, nullptr);
  EXPECT_EQ(arena->size(), r.size());
  EXPECT_EQ(arena->Column(0).size(), r.size());
}

TEST(ColumnArena, DedupAfterColumnRewrite) {
  // Erase swaps the last row into the erased slot (a column rewrite); the
  // row-index hash table must stay consistent through it.
  Relation r;
  for (int i = 0; i < 100; ++i) r.Insert(Tuple({I(i), I(i * 2)}));
  // Erase from the middle so the swap path (row != last) is exercised.
  for (int i = 10; i < 60; ++i) {
    EXPECT_TRUE(r.Erase(Tuple({I(i), I(i * 2)})));
  }
  EXPECT_EQ(r.size(), 50u);
  // Survivors still dedup — including the rows that were physically moved.
  for (int i = 60; i < 100; ++i) {
    EXPECT_TRUE(r.Contains(Tuple({I(i), I(i * 2)})));
    EXPECT_FALSE(r.Insert(Tuple({I(i), I(i * 2)})));
  }
  // Erased tuples are re-insertable exactly once.
  for (int i = 10; i < 60; ++i) {
    EXPECT_FALSE(r.Contains(Tuple({I(i), I(i * 2)})));
    EXPECT_TRUE(r.Insert(Tuple({I(i), I(i * 2)})));
    EXPECT_FALSE(r.Insert(Tuple({I(i), I(i * 2)})));
  }
  EXPECT_EQ(r.size(), 100u);
}

TEST(ColumnArena, VersionAdvancesOnEveryMutation) {
  Relation r;
  r.Insert(Tuple({I(1), I(2)}));
  const ColumnArena* arena = r.ArenaOfArity(2);
  ASSERT_NE(arena, nullptr);
  uint64_t v1 = arena->version();
  r.Insert(Tuple({I(3), I(4)}));
  uint64_t v2 = arena->version();
  EXPECT_GT(v2, v1);
  r.Erase(Tuple({I(3), I(4)}));
  r.Insert(Tuple({I(5), I(6)}));
  // Same size as at v2, but the content changed — version must differ.
  EXPECT_EQ(arena->size(), 2u);
  EXPECT_GT(arena->version(), v2);
  // A duplicate insert is not a mutation.
  uint64_t v3 = arena->version();
  r.Insert(Tuple({I(5), I(6)}));
  EXPECT_EQ(arena->version(), v3);
}

TEST(Relation, ForEachOfArityStableWhileInserting) {
  // Regression test for the emit-during-iteration pattern: inserting into
  // the relation being iterated must neither crash nor visit the new rows
  // in the same pass (the row count is snapshotted at entry).
  Relation r;
  constexpr int kInitial = 500;  // enough to force column reallocation
  for (int i = 0; i < kInitial; ++i) r.Insert(Tuple({I(i)}));
  int visited = 0;
  r.ForEachOfArity(1, [&](const TupleRef& t) {
    // Insert a fresh tuple derived from the visited one.
    r.Insert(Tuple({I(t[0].AsInt() + kInitial)}));
    ++visited;
  });
  EXPECT_EQ(visited, kInitial);
  EXPECT_EQ(r.size(), static_cast<size_t>(2 * kInitial));
}

TEST(Relation, ForEachStableWhileInsertingNewArity) {
  Relation r;
  for (int i = 0; i < 50; ++i) r.Insert(Tuple({I(i), I(i)}));
  int visited_pairs = 0;
  r.ForEach([&](const TupleRef& t) {
    if (t.arity() == 2) {
      // Derive into a different arity mid-iteration.
      r.Insert(Tuple({I(t[0].AsInt()), I(0), I(0)}));
      ++visited_pairs;
    }
  });
  EXPECT_EQ(visited_pairs, 50);
  EXPECT_EQ(r.CountOfArity(2), 50u);
  EXPECT_EQ(r.CountOfArity(3), 50u);
}

TEST(Relation, ScanPrefixStableWhenCallbackInsertsAndSorts) {
  // Regression: a ScanPrefix callback that inserts rows sorting before the
  // matched run AND forces a sorted view (re-sorting it in place) must not
  // shift the run under the scan — rows were visited twice before the scan
  // snapshotted its run.
  Relation r;
  for (int i = 0; i < 8; ++i) r.Insert(Tuple({I(1), I(i)}));
  int visited = 0;
  r.ScanPrefix(Tuple({I(1)}), [&](const TupleRef& row) {
    EXPECT_EQ(row[0], I(1));
    ++visited;
    r.Insert(Tuple({I(0), I(100 + visited)}));  // sorts before the run
    (void)r.TuplesOfArity(2);                   // forces the re-sort
    return true;
  });
  EXPECT_EQ(visited, 8);
  EXPECT_EQ(r.size(), 16u);
}

TEST(Relation, TupleRefStaysValidAcrossInserts) {
  Relation r;
  r.Insert(Tuple({I(7), I(8), I(9)}));
  const ColumnArena* arena = r.ArenaOfArity(3);
  ASSERT_NE(arena, nullptr);
  TupleRef ref = arena->Row(0);
  // Push the columns through several reallocations.
  for (int i = 0; i < 2000; ++i) r.Insert(Tuple({I(i), I(i), I(i)}));
  EXPECT_EQ(ref[0], I(7));
  EXPECT_EQ(ref[1], I(8));
  EXPECT_EQ(ref[2], I(9));
  EXPECT_EQ(ref.ToTuple(), Tuple({I(7), I(8), I(9)}));
}

TEST(Relation, MixedArityRoundTrip) {
  // A mixed-arity predicate (the paper's Prefix/Perm shape) written into
  // columnar storage and read back through every access path.
  std::vector<Tuple> tuples = {
      Tuple{},
      Tuple({I(1)}),
      Tuple({I(1), I(2)}),
      Tuple({I(1), I(2), I(3)}),
      Tuple({I(2), I(1)}),
  };
  Relation r = Relation::FromTuples(tuples);
  EXPECT_EQ(r.size(), 5u);
  EXPECT_EQ(r.Arities(), (std::vector<size_t>{0, 1, 2, 3}));
  for (const Tuple& t : tuples) EXPECT_TRUE(r.Contains(t));

  // Sorted round-trip is deterministic and ordered by (arity, lex).
  std::vector<Tuple> sorted = r.SortedTuples();
  ASSERT_EQ(sorted.size(), 5u);
  EXPECT_EQ(sorted[0], Tuple{});
  EXPECT_EQ(sorted[1], Tuple({I(1)}));
  EXPECT_EQ(sorted[2], Tuple({I(1), I(2)}));
  EXPECT_EQ(sorted[3], Tuple({I(2), I(1)}));
  EXPECT_EQ(sorted[4], Tuple({I(1), I(2), I(3)}));

  // Prefix scan crosses arity blocks; suffixes strip the prefix.
  Relation suffixes = r.Suffixes(Tuple({I(1)}));
  EXPECT_EQ(suffixes.size(), 3u);  // <>, (2), (2,3)
  EXPECT_TRUE(suffixes.Contains(Tuple{}));
  EXPECT_TRUE(suffixes.Contains(Tuple({I(2)})));
  EXPECT_TRUE(suffixes.Contains(Tuple({I(2), I(3)})));

  // Round-trip through copy + set algebra preserves equality and hash.
  Relation copy = r.Union(Relation());
  EXPECT_EQ(copy, r);
  EXPECT_EQ(copy.Hash(), r.Hash());
}

TEST(IndexCache, RepairsAfterEraseAndInsert) {
  // Indexes store row indices into the arena; an erase+insert cycle that
  // returns to the same size must still be noticed — and is repaired from
  // the arena's erase journal rather than rebuilt.
  Relation r;
  r.Insert(Tuple({I(1), I(10)}));
  r.Insert(Tuple({I(2), I(20)}));

  datalog::IndexCache cache;
  uint64_t builds = 0;
  uint64_t repairs = 0;
  const datalog::HashIndex& index = cache.Get("p", r, 2, {0}, &builds,
                                              &repairs);
  EXPECT_EQ(builds, 1u);
  int hits = 0;
  index.Probe({I(2)}, [&](const TupleRef& row) {
    EXPECT_EQ(row[1], I(20));
    ++hits;
  });
  EXPECT_EQ(hits, 1);

  r.Erase(Tuple({I(2), I(20)}));
  r.Insert(Tuple({I(2), I(99)}));  // same size, different content

  const datalog::HashIndex& again = cache.Get("p", r, 2, {0}, &builds,
                                              &repairs);
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(repairs, 1u);
  hits = 0;
  again.Probe({I(2)}, [&](const TupleRef& row) {
    EXPECT_EQ(row[1], I(99));
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(IndexCache, RebuildsWhenArityArenaIsRecreated) {
  // Erasing the last row of an arity destroys its arena; a new arena may be
  // allocated at the same address with a version that could collide. The
  // cache keys on the process-unique arena id, so it must rebuild.
  Relation r;
  r.Insert(Tuple({I(1), I(10)}));
  datalog::IndexCache cache;
  uint64_t builds = 0;
  cache.Get("p", r, 2, {0}, &builds);
  EXPECT_EQ(builds, 1u);
  r.Erase(Tuple({I(1), I(10)}));   // arity-2 arena destroyed
  r.Insert(Tuple({I(1), I(77)}));  // fresh arena, possibly same address
  const datalog::HashIndex& index = cache.Get("p", r, 2, {0}, &builds);
  EXPECT_EQ(builds, 2u);
  int hits = 0;
  index.Probe({I(1)}, [&](const TupleRef& row) {
    EXPECT_EQ(row[1], I(77));
    ++hits;
  });
  EXPECT_EQ(hits, 1);
}

TEST(IndexCache, SortedColumnsCachedPerVersion) {
  Relation r;
  r.Insert(Tuple({I(3), I(1)}));
  r.Insert(Tuple({I(1), I(2)}));

  datalog::IndexCache cache;
  uint64_t builds = 0;
  const joins::SortedColumns& swapped = cache.GetSorted("p", r, 2, {1, 0},
                                                        &builds);
  EXPECT_EQ(builds, 1u);
  ASSERT_EQ(swapped.rows, 2u);
  // Permuted column 0 is stored column 1, sorted: (1,3), (2,1).
  EXPECT_EQ(swapped.cols[0], (std::vector<Value>{I(1), I(2)}));
  EXPECT_EQ(swapped.cols[1], (std::vector<Value>{I(3), I(1)}));

  // Unchanged relation: cache hit, no rebuild.
  cache.GetSorted("p", r, 2, {1, 0}, &builds);
  EXPECT_EQ(builds, 1u);

  r.Insert(Tuple({I(0), I(0)}));
  const joins::SortedColumns& rebuilt = cache.GetSorted("p", r, 2, {1, 0},
                                                        &builds);
  EXPECT_EQ(builds, 2u);
  EXPECT_EQ(rebuilt.rows, 3u);
}

// --- the ForEachOfArityRange / swap-last-erase contract ----------------------
//
// Erase swaps the last row into the erased slot and shrinks the columns, so
// row indices held across an in-loop mutation go stale. The pinned contract
// (src/data/relation.h): ranged iteration re-clamps to the shrunken row
// count — it never hands out a row index past the end — and visitation
// becomes lossy (the swapped-in row may be skipped), while erase-free
// iteration stays exactly-once with ranges partitioning the arena.

TEST(ForEachRangeErase, DisjointRangesPartitionExactlyWithoutMutation) {
  Relation r;
  constexpr int kRows = 1000;
  for (int i = 0; i < kRows; ++i) r.Insert(Tuple({I(i), I(i + 1)}));
  // Chunked like the parallel evaluator's driver scans: arbitrary cuts.
  std::vector<std::pair<size_t, size_t>> ranges = {
      {0, 137}, {137, 512}, {512, 513}, {513, 1000}, {1000, 2000}};
  std::vector<int> seen(kRows, 0);
  for (const auto& [begin, end] : ranges) {
    r.ForEachOfArityRange(2, begin, end, [&](const TupleRef& t) {
      seen[static_cast<int>(t[0].AsInt())]++;
    });
  }
  for (int i = 0; i < kRows; ++i) {
    EXPECT_EQ(seen[i], 1) << "row " << i << " visited " << seen[i] << " times";
  }
}

TEST(ForEachRangeErase, EraseDuringRangedIterationTruncatesSafely) {
  // fn erases the row it is handed (plus never the last remaining tuple of
  // the arity): the loop must re-clamp to the shrinking arena instead of
  // dereferencing stale row indices past the new end.
  Relation r;
  constexpr int kRows = 64;
  for (int i = 0; i < kRows; ++i) r.Insert(Tuple({I(i)}));
  size_t visited = 0;
  r.ForEachOfArityRange(1, 0, kRows, [&](const TupleRef& t) {
    ++visited;
    if (r.size() > 1) {
      Tuple victim({t[0]});
      EXPECT_TRUE(r.Erase(victim));
    }
  });
  // Every handed-out row was a live row: with one erase per visit, the
  // clamp stops the loop near the midpoint instead of running to kRows.
  EXPECT_GE(visited, static_cast<size_t>(kRows) / 2);
  EXPECT_LE(visited, static_cast<size_t>(kRows));
  // The relation is still structurally consistent after the churn.
  size_t remaining = 0;
  r.ForEachOfArity(1, [&](const TupleRef&) { ++remaining; });
  EXPECT_EQ(remaining, r.size());
  // One erase per visit: the survivors plus the visits account for every
  // original row (the size > 1 guard never fires at this scale).
  EXPECT_EQ(r.size() + visited, static_cast<size_t>(kRows));
}

TEST(ForEachRangeErase, SwappedInRowsMaySkipButNeverDangle) {
  // Erasing an already-visited row moves the (unvisited) tail row into
  // visited territory: the contract allows skipping it, but every TupleRef
  // handed out must be a live row whose values round-trip.
  Relation r;
  constexpr int kRows = 100;
  for (int i = 0; i < kRows; ++i) r.Insert(Tuple({I(i), I(i * 10)}));
  std::vector<int64_t> handed;
  r.ForEachOfArityRange(2, 0, kRows, [&](const TupleRef& t) {
    int64_t key = t[0].AsInt();
    EXPECT_EQ(t[1].AsInt(), key * 10) << "dangling or torn row";
    handed.push_back(key);
    if (key % 3 == 0 && r.size() > 1) {
      r.Erase(Tuple({I(key), I(key * 10)}));
    }
  });
  // No duplicates among handed-out rows (a stale index could revisit).
  std::sort(handed.begin(), handed.end());
  EXPECT_TRUE(std::adjacent_find(handed.begin(), handed.end()) ==
              handed.end());
}

TEST(ForEachRangeErase, EraseInvalidatesVersionAndSortedViews) {
  // Downstream structures key on (id, version): an erase between rounds
  // must bump the version so stale sorted views / indexes rebuild instead
  // of dereferencing renumbered rows.
  Relation r;
  for (int i = 0; i < 10; ++i) r.Insert(Tuple({I(i), I(i)}));
  const ColumnArena* arena = r.ArenaOfArity(2);
  ASSERT_NE(arena, nullptr);
  (void)arena->SortedRows();
  uint64_t version_before = arena->version();
  ASSERT_TRUE(r.Erase(Tuple({I(4), I(4)})));
  EXPECT_GT(arena->version(), version_before);
  // The rebuilt sorted view covers exactly the surviving rows.
  EXPECT_EQ(arena->SortedRows().size(), 9u);
  EXPECT_EQ(r.TuplesOfArity(2).size(), 9u);
}

TEST(ForEachRangeErase, ErasingTheLastTupleOfAnArityDropsTheArena) {
  // The documented hard exception: when an arity empties, its arena node is
  // destroyed (blocks_ holds only non-empty arenas — AsBool/operator==
  // depend on it), so erasing the final tuple of the arity being iterated
  // is unsupported mid-flight. Pin the invariant that motivates it.
  Relation r;
  r.Insert(Tuple({I(1)}));
  r.Insert(Tuple({I(2), I(3)}));
  ASSERT_NE(r.ArenaOfArity(1), nullptr);
  ASSERT_TRUE(r.Erase(Tuple({I(1)})));
  EXPECT_EQ(r.ArenaOfArity(1), nullptr);
  EXPECT_EQ(r.Arities(), std::vector<size_t>{2});
  // An erase+reinsert sequence lands in a fresh arena with a fresh id, so
  // (id, version)-keyed caches cannot alias the destroyed arena.
  uint64_t old_id = r.ArenaOfArity(2)->id();
  ASSERT_TRUE(r.Erase(Tuple({I(2), I(3)})));
  r.Insert(Tuple({I(2), I(3)}));
  EXPECT_NE(r.ArenaOfArity(2)->id(), old_id);
}

// --- precomputed-hash calls ------------------------------------------------
//
// The Datalog emit path hashes a head row once and hands the hash to both
// the dedup probe and the insert. These pin that the hashed calls are the
// unhashed ones with the hash supplied, and that the returned row index is
// the row the arena holds there.

TEST(HashedCalls, HashRowEqualsTupleHash) {
  const std::vector<Value> vals = {I(3), Value::String("x"), Value::Float(2.5)};
  Tuple t(vals);
  EXPECT_EQ(HashRow(vals.data(), vals.size()), t.Hash());
  EXPECT_EQ(HashRow(nullptr, 0), Tuple().Hash());
  Relation r;
  r.Insert(t);
  EXPECT_EQ(r.ArenaOfArity(3)->RowHash(0), t.Hash());
}

TEST(HashedCalls, AgreeWithUnhashedInsertAndContains) {
  // Two relations fed the same rows, one through each call family, end up
  // equal, and every membership answer agrees across both families.
  Relation hashed, plain;
  for (int i = 0; i < 200; ++i) {
    const Value row[3] = {I(i % 7), I(i % 13), I(i % 5)};
    const size_t h = HashRow(row, 3);
    EXPECT_EQ(hashed.ContainsHashed(row, 3, h), plain.Contains(row, 3));
    const bool landed = hashed.InsertHashed(row, 3, h) != ColumnArena::kNoRow;
    EXPECT_EQ(landed, plain.Insert(row, 3)) << "row " << i;
    EXPECT_TRUE(hashed.ContainsHashed(row, 3, h));
  }
  EXPECT_EQ(hashed, plain);
  EXPECT_EQ(hashed.ToString(), plain.ToString());
  const Value absent[3] = {I(99), I(0), I(0)};
  EXPECT_FALSE(hashed.ContainsHashed(absent, 3, HashRow(absent, 3)));
  // A probe for an arity the relation lacks is a miss, not an error.
  EXPECT_FALSE(hashed.ContainsHashed(absent, 2, HashRow(absent, 2)));
}

TEST(HashedCalls, InsertReturnsTheRowForEachRowVisits) {
  ColumnArena arena(2);
  std::vector<size_t> landed;
  for (int i = 0; i < 50; ++i) {
    const Value row[2] = {I(i), I(i * i)};
    size_t at = arena.InsertHashed(row, HashRow(row, 2));
    ASSERT_NE(at, ColumnArena::kNoRow);
    EXPECT_EQ(at, arena.size() - 1);
    landed.push_back(at);
  }
  size_t visited = 0;
  arena.ForEachRow([&](const TupleRef& ref) {
    const int i = static_cast<int>(ref[0].AsInt());
    EXPECT_EQ(landed[i], ref.row());
    EXPECT_EQ(arena.At(landed[i], 1), I(i * i));
    ++visited;
  });
  EXPECT_EQ(visited, landed.size());
}

TEST(HashedCalls, DuplicateReportsAbsentAndLeavesTheArenaAlone) {
  Relation r;
  const Value row[2] = {I(1), I(2)};
  const size_t h = HashRow(row, 2);
  ASSERT_EQ(r.InsertHashed(row, 2, h), 0u);
  const uint64_t version = r.ArenaOfArity(2)->version();
  EXPECT_EQ(r.InsertHashed(row, 2, h), ColumnArena::kNoRow);
  EXPECT_TRUE(r.ArenaOfArity(2)->ContainsHashed(row, h));
  EXPECT_FALSE(r.Insert(Tuple({I(1), I(2)})));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.ArenaOfArity(2)->version(), version);
}

TEST(HashedCalls, EraseBySpanMatchesEraseByTuple) {
  Relation r;
  r.Insert(Tuple({I(1), I(2)}));
  r.Insert(Tuple({I(3)}));
  const Value row[2] = {I(1), I(2)};
  EXPECT_TRUE(r.Erase(row, 2));
  EXPECT_FALSE(r.Erase(row, 2));
  EXPECT_EQ(r.ArenaOfArity(2), nullptr);  // the emptied arity is dropped
  EXPECT_EQ(r.ToString(), "{(3)}");
}

// --- Erase journal: repaired structures equal fresh ones ---------------------

constexpr int kKeys = 6;

/// Every key's probe result, rendered in visit order.
std::vector<std::string> ProbeAll(const datalog::HashIndex& index) {
  std::vector<std::string> out(kKeys);
  for (int k = 0; k < kKeys; ++k) {
    index.Probe({I(k)}, [&](const TupleRef& row) {
      out[k] += row.ToTuple().ToString();
    });
  }
  return out;
}

/// `arena`'s row indices sorted from scratch.
std::vector<uint32_t> FreshSort(const ColumnArena& arena) {
  std::vector<uint32_t> rows(arena.size());
  std::iota(rows.begin(), rows.end(), 0u);
  std::sort(rows.begin(), rows.end(), [&](uint32_t a, uint32_t b) {
    return arena.Row(a).ToTuple() < arena.Row(b).ToTuple();
  });
  return rows;
}

/// Checks `index` (repairing it first, or rebuilding when the journal is
/// too short) and the arena's sorted rows against fresh ones. Returns
/// whether the repair succeeded.
bool RepairAndCompare(const ColumnArena& arena, datalog::HashIndex* index) {
  bool repaired = index->Repair(&arena);
  if (!repaired) index->Build(&arena, {0});
  datalog::HashIndex fresh;
  fresh.Build(&arena, {0});
  EXPECT_EQ(ProbeAll(*index), ProbeAll(fresh));
  EXPECT_EQ(arena.SortedRows(), FreshSort(arena));
  return repaired;
}

void InsertRow(ColumnArena* arena, int64_t k, int64_t v) {
  Value vals[2] = {I(k), I(v)};
  arena->Insert(vals);
}

void EraseRow(ColumnArena* arena, size_t row) {
  Tuple t = arena->Row(row).ToTuple();
  ASSERT_TRUE(arena->Erase(t.values().data()));
}

TEST(EraseJournal, RepairedIndexAndSortedViewsMatchFreshOnes) {
  // Random insert/erase streams, checked at random intervals so a repair
  // spans several steps: erasing the last row, erasing everything and
  // refilling, and erasing rows appended since the last repair all occur.
  int repairs = 0;
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    std::mt19937 rng(seed);
    ColumnArena arena(2);
    datalog::HashIndex index;
    index.Build(&arena, {0});
    (void)arena.SortedRows();
    for (int step = 0; step < 300; ++step) {
      const uint32_t op = rng() % 16;
      if (arena.empty() || op < 8) {
        InsertRow(&arena, rng() % kKeys, rng() % 30);
      } else if (op < 12) {
        EraseRow(&arena, rng() % arena.size());
      } else if (op < 14) {
        EraseRow(&arena, arena.size() - 1);
      } else if (op == 14 && rng() % 4 == 0) {
        while (!arena.empty()) EraseRow(&arena, rng() % arena.size());
      }
      if (rng() % 3 == 0) repairs += RepairAndCompare(arena, &index);
    }
    repairs += RepairAndCompare(arena, &index);
  }
  EXPECT_GT(repairs, 0);
}

TEST(EraseJournal, RepairsRowsAppendedAndErasedBetweenRepairs) {
  ColumnArena arena(2);
  for (int i = 0; i < 20; ++i) InsertRow(&arena, i % kKeys, i);
  datalog::HashIndex index;
  index.Build(&arena, {0});
  (void)arena.SortedRows();
  // Appended, then erased (the last row), then appended again; plus an
  // old row erased with the appended row swapped into its slot.
  InsertRow(&arena, 1, 100);
  InsertRow(&arena, 2, 101);
  EraseRow(&arena, arena.size() - 1);
  EraseRow(&arena, 3);
  InsertRow(&arena, 3, 102);
  EXPECT_TRUE(RepairAndCompare(arena, &index));
}

TEST(EraseJournal, OverflowFallsBackToRebuild) {
  // The journal keeps max(64, rows / 8) erases; a structure further behind
  // must rebuild, and the rebuilt structures are still exact.
  ColumnArena arena(2);
  for (int i = 0; i < 100; ++i) InsertRow(&arena, i % kKeys, i);
  datalog::HashIndex index;
  index.Build(&arena, {0});
  (void)arena.SortedRows();
  for (int i = 0; i < 40; ++i) {
    EraseRow(&arena, 0);
    InsertRow(&arena, i % kKeys, 1000 + i);
  }
  EXPECT_TRUE(RepairAndCompare(arena, &index));  // 40 erases: within the cap
  for (int i = 0; i < 200; ++i) {
    EraseRow(&arena, i % arena.size());
    InsertRow(&arena, i % kKeys, 2000 + i);
  }
  EXPECT_FALSE(RepairAndCompare(arena, &index));  // 200 erases: past it
  EXPECT_TRUE(RepairAndCompare(arena, &index));   // caught up again
}

TEST(EraseJournal, CopiesStartAFreshHistory) {
  // A copy's content is wholesale new to its own id; a structure built
  // over the original cannot replay onto it, but the copied sorted rows
  // stay usable and repair from the copy's own journal.
  ColumnArena arena(2);
  for (int i = 0; i < 10; ++i) InsertRow(&arena, i % kKeys, i);
  (void)arena.SortedRows();
  ColumnArena copy(arena);
  RowChanges changes;
  EXPECT_FALSE(copy.ChangesSince(arena.version(), arena.size(), &changes));
  datalog::HashIndex index;
  index.Build(&copy, {0});
  EraseRow(&copy, 2);
  InsertRow(&copy, 5, 50);
  EXPECT_TRUE(RepairAndCompare(copy, &index));
}

TEST(EraseJournal, RelationSortedReadsMatchAFreshSort) {
  // The Tuple-returning sorted reads are built from each arena's repaired
  // SortedRows() on every call; after mixed-arity insert/erase streams
  // they must equal a from-scratch sort of the relation's contents.
  for (uint32_t seed = 1; seed <= 10; ++seed) {
    std::mt19937 rng(seed);
    Relation r;
    std::vector<Tuple> present;
    for (int step = 0; step < 400; ++step) {
      if (present.empty() || rng() % 3 != 0) {
        Tuple t = rng() % 2 == 0
                      ? Tuple({I(rng() % kKeys), I(rng() % 30)})
                      : Tuple({I(rng() % 30)});
        if (r.Insert(t)) present.push_back(t);
      } else {
        const size_t i = rng() % present.size();
        ASSERT_TRUE(r.Erase(present[i]));
        present[i] = present.back();
        present.pop_back();
      }
      // Read at random intervals so later reads repair from the journal.
      if (rng() % 5 == 0) (void)r.SortedTuples();
    }
    std::vector<Tuple> want = present;
    std::sort(want.begin(), want.end(), [](const Tuple& a, const Tuple& b) {
      return a.arity() != b.arity() ? a.arity() < b.arity() : a < b;
    });
    EXPECT_EQ(r.SortedTuples(), want);
    std::vector<Tuple> want_pairs;
    for (const Tuple& t : want) {
      if (t.arity() == 2) want_pairs.push_back(t);
    }
    EXPECT_EQ(r.TuplesOfArity(2), want_pairs);
    EXPECT_TRUE(r.TuplesOfArity(3).empty());
  }
}

}  // namespace
}  // namespace rel
