// Tests for incremental maintenance through the commit pipeline and the
// extent caches: the writer-side cache surviving commits and rollbacks,
// sessions walking the published delta chain on re-pin, failure-atomic
// maintenance, Decker-style delta-specialized integrity checking, and the
// affected-view-only invalidation on rule extensions. Every cache entry is
// a whole lowered component; a bound read of tc takes the same entry.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "base/error.h"
#include "core/engine.h"
#include "core/session.h"
#include "data/tuple.h"
#include "data/value.h"
#include "storage/file.h"

namespace rel {
namespace {

Value I(int64_t v) { return Value::Int(v); }

const char kTc[] =
    "def tc(x, y) : edge(x, y)\n"
    "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))";

TEST(WriterMaintain, ExtentsCarryAcrossCommits) {
  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});

  // First transaction lowers tc against the pre-state and caches its
  // fixpoint; the commit's maintain step moves it to the post-version.
  EXPECT_EQ(engine.Exec("def output(x, y) : tc(x, y)\n"
                        "def insert(:edge, x, y) : x = 3 and y = 4")
                .output.size(),
            3u);
  EXPECT_GT(engine.writer_extent_cache().size(), 0u);
  EXPECT_GT(engine.writer_extent_cache().maintained() +
                engine.writer_extent_cache().restamped(),
            0u);

  // The next transaction's pre-state evaluation hits the maintained entry —
  // no recomputation — and sees the new edge.
  uint64_t hits_before = engine.writer_extent_cache().hits();
  TxnResult r = engine.Exec("def output(x, y) : tc(x, y)");
  EXPECT_EQ(r.output.size(), 6u);
  EXPECT_GT(engine.writer_extent_cache().hits(), hits_before);
}

const char kReadTc[] = "def output(x, y) : tc(x, y)";

TEST(WriterViews, RollbackDiscardsAbortedEntriesOnly) {
  Engine engine;
  engine.Define(kTc);
  engine.Define("ic no_big() requires forall((x, y) | edge(x, y) implies y < 100)");
  engine.Insert("edge", {Tuple({I(1), I(2)})});

  // Warm the writer cache and pass a full integrity check.
  engine.Exec(kReadTc);
  EXPECT_GT(engine.writer_extent_cache().size(), 0u);

  // This transaction evaluates tc (maintained to its working version, now
  // reaching 500), then aborts on the constraint — the rollback must drop
  // the aborted version's entries so the next commit cannot see (2, 500).
  EXPECT_THROW(engine.Exec(std::string(kReadTc) + "\n"
                           "def insert(:edge, x, y) : x = 2 and y = 500"),
               ConstraintViolation);
  EXPECT_GT(engine.writer_extent_cache().dropped(), 0u);

  // A different commit re-issues the same working version numbers with
  // different content; cached views must match it, not the abort.
  engine.Exec("def insert(:edge, x, y) : x = 2 and y = 3");
  EXPECT_EQ(engine.Exec(kReadTc).output.ToString(),
            "{(1, 2); (1, 3); (2, 3)}");
}

TEST(SessionViews, ExtentCacheWalksTheDeltaChain) {
  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  EXPECT_EQ(reader->Query(kReadTc).size(), 3u);
  EXPECT_GT(reader->extent_cache().size(), 0u);

  // Two commits land elsewhere; the reader re-pins across both and its
  // cached view follows the delta chain instead of being dropped.
  engine.Exec("def insert(:edge, x, y) : x = 3 and y = 4");
  engine.Exec("def insert(:edge, x, y) : x = 4 and y = 5");
  reader->Refresh();
  EXPECT_GT(reader->extent_cache().maintained(), 0u);

  uint64_t hits_before = reader->extent_cache().hits();
  EXPECT_EQ(reader->Query(kReadTc).size(), 10u);
  EXPECT_GT(reader->extent_cache().hits(), hits_before);
  EXPECT_GT(reader->last_lowering_stats().extent_cache_hits, 0);
}

TEST(SessionViews, StalePinBeyondTheWindowFallsBackToRecompute) {
  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(0), I(1)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  reader->Query(kReadTc);
  ASSERT_GT(reader->extent_cache().size(), 0u);

  // Push far more commits than the published delta window holds.
  for (int i = 1; i < 14; ++i) {
    engine.Insert("edge", {Tuple({I(i), I(i + 1)})});
  }
  reader->Refresh();
  // Correctness is unconditional: the chain no longer reaches the old pin,
  // so the cache was dropped and the query recomputes.
  EXPECT_EQ(reader->extent_cache().size(), 0u);
  EXPECT_EQ(reader->Query(kReadTc).size(), 14u * 15u / 2u);
}

TEST(SessionViews, BoundReadsShareTheComponentEntry) {
  // Bound reads of a recursive component take its full, cached extent:
  // distinct keys share one entry, and every read after the first is a hit.
  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(0), I(1)}), Tuple({I(1), I(2)}),
                         Tuple({I(2), I(3)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  EXPECT_EQ(reader->Query("def output(y) : tc(0, y)").size(), 3u);
  EXPECT_EQ(reader->last_lowering_stats().extent_cache_hits, 0);
  EXPECT_EQ(reader->Query("def output(y) : tc(1, y)").ToString(), "{(2); (3)}");
  EXPECT_EQ(reader->last_lowering_stats().extent_cache_hits, 1);
  EXPECT_EQ(reader->Query("def output(y) : tc(2, y)").ToString(), "{(3)}");
  EXPECT_EQ(reader->last_lowering_stats().extent_cache_hits, 1);
  EXPECT_EQ(reader->extent_cache().size(), 1u);
  EXPECT_EQ(reader->extent_cache().hits(), 2u);
}

// --- failure-atomic maintenance ---------------------------------------------

/// A lowered recursive sum whose maintenance overflows: with e = {(1,2,1),
/// (2,3,INT64_MAX)}, p reaches (2, 6) and then 6 + INT64_MAX.
const char kSumPaths[] =
    "def p(x, s) : start(x, s)\n"
    "def p(y, t) : exists((x, s, w) | p(x, s) and e(x, y, w) and t = s + w)";
const char kReadP[] = "def output(x, s) : p(x, s)";

std::vector<Tuple> OverflowingEdges() {
  return {Tuple({I(1), I(2), I(1)}),
          Tuple({I(2), I(3), I(std::numeric_limits<int64_t>::max())})};
}

/// "kind: message" of the error `read` raises, or "no error: <answer>".
template <typename Read>
std::string ErrorOf(Read read) {
  try {
    return "no error: " + read().ToString();
  } catch (const RelError& err) {
    return std::string(ErrorKindName(err.kind())) + ": " + err.what();
  }
}

TEST(FailureAtomicMaintain, ReaderDropsTheEntryWhoseMaintenanceThrows) {
  Engine engine;
  engine.Define(kSumPaths);
  engine.Insert("start", {Tuple({I(1), I(5)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  EXPECT_EQ(reader->Query(kReadP).ToString(), "{(1, 5)}");
  ASSERT_GT(reader->extent_cache().size(), 0u);

  engine.Insert("e", OverflowingEdges());
  // The re-pin succeeds: the entry whose maintenance overflowed is dropped,
  // not served half-maintained under the old pin.
  uint64_t dropped_before = reader->extent_cache().dropped();
  ASSERT_NO_THROW(reader->Refresh());
  EXPECT_EQ(reader->snapshot_version(), engine.SnapshotNow()->version());
  EXPECT_GT(reader->extent_cache().dropped(), dropped_before);

  // Every read raises exactly what a fresh session raises.
  std::unique_ptr<Session> fresh = engine.OpenSession();
  const std::string expected = ErrorOf([&] { return fresh->Query(kReadP); });
  EXPECT_EQ(expected.rfind(ErrorKindName(ErrorKind::kType), 0), 0u) << expected;
  EXPECT_EQ(ErrorOf([&] { return reader->Query(kReadP); }), expected);
  ASSERT_NO_THROW(reader->Refresh());
  EXPECT_EQ(ErrorOf([&] { return reader->Query(kReadP); }), expected);
}

TEST(FailureAtomicMaintain, WriterDropsTheEntryWhoseMaintenanceThrows) {
  Engine engine;
  engine.Define(kSumPaths);
  engine.Insert("start", {Tuple({I(1), I(5)})});
  engine.Exec(kReadP);  // caches p in the writer cache
  ASSERT_GT(engine.writer_extent_cache().size(), 0u);

  // The bulk insert commits: maintenance failing on a cached view is not a
  // reason to fail (or half-apply) the write.
  ASSERT_NO_THROW(engine.Insert("e", OverflowingEdges()));
  EXPECT_EQ(engine.Base("e").size(), 2u);

  std::unique_ptr<Session> fresh = engine.OpenSession();
  const std::string expected = ErrorOf([&] { return fresh->Query(kReadP); });
  EXPECT_EQ(expected.rfind(ErrorKindName(ErrorKind::kType), 0), 0u) << expected;
  // Writer-side reads (the pre-state of a transaction) and facade reads
  // agree with the fresh session.
  EXPECT_EQ(ErrorOf([&] { return engine.Exec(kReadP).output; }), expected);
  EXPECT_EQ(ErrorOf([&] { return engine.Query(kReadP); }), expected);
}

// --- recovery starts a new version timeline ---------------------------------

TEST(EpochMaintain, RecoveredDatabaseNeverServesOldEpochExtents) {
  // A store whose recovered database lands on the same version number as
  // the engine's current one, with different edges.
  auto fs = std::make_shared<storage::MemFileSystem>();
  {
    Engine other;
    ASSERT_TRUE(other.AttachStorage("db", {}, fs).status.ok());
    other.Insert("edge", {Tuple({I(1), I(5)}), Tuple({I(5), I(6)})});
  }

  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)})});
  std::unique_ptr<Session> reader = engine.OpenSession();
  EXPECT_EQ(reader->Query("def output(y) : tc(1, y)").ToString(), "{(2); (3)}");
  ASSERT_GT(reader->extent_cache().size(), 0u);
  const uint64_t old_version = reader->snapshot_version();

  ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
  reader->Refresh();
  ASSERT_EQ(reader->snapshot_version(), old_version);  // the aliasing case
  EXPECT_EQ(reader->Base("edge").ToString(), "{(1, 5); (5, 6)}");

  std::unique_ptr<Session> fresh = engine.OpenSession();
  EXPECT_EQ(fresh->Query("def output(y) : tc(1, y)").ToString(), "{(5); (6)}");
  EXPECT_EQ(reader->Query("def output(y) : tc(1, y)").ToString(), "{(5); (6)}");
}

TEST(SessionMaintain, DeleteMaintainsThroughDRed) {
  Engine engine;
  engine.Define(kTc);
  // Diamond: deleting (0,1) over-deletes tc(0,3); the 0->2->3 path
  // re-derives it.
  engine.Insert("edge", {Tuple({I(0), I(1)}), Tuple({I(1), I(3)}),
                         Tuple({I(0), I(2)}), Tuple({I(2), I(3)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  EXPECT_EQ(reader->Query("def output(x, y) : tc(x, y)").size(), 5u);

  engine.Exec("def delete(:edge, x, y) : x = 0 and y = 1");
  reader->Refresh();
  EXPECT_GT(reader->extent_cache().maintained(), 0u);
  EXPECT_EQ(reader->Query("def output(x, y) : tc(x, y)").ToString(),
            "{(0, 2); (0, 3); (1, 3); (2, 3)}");
  EXPECT_GT(reader->extent_cache().maintain_stats().rederived, 0u);
}

TEST(SessionMaintain, MaintainedAnswersMatchFreshSessionByteForByte) {
  Engine engine;
  engine.Define(kTc);
  engine.Insert("edge", {Tuple({I(1), I(2)}), Tuple({I(2), I(3)}),
                         Tuple({I(3), I(4)})});

  std::unique_ptr<Session> warm = engine.OpenSession();
  warm->Query("def output(x, y) : tc(x, y)");

  const char* updates[] = {
      "def insert(:edge, x, y) : x = 4 and y = 5",
      "def delete(:edge, x, y) : x = 2 and y = 3",
      "def insert(:edge, x, y) : x = 2 and y = 5",
  };
  for (const char* update : updates) {
    engine.Exec(update);
    warm->Refresh();
    std::unique_ptr<Session> cold = engine.OpenSession();
    EXPECT_EQ(warm->Query("def output(x, y) : tc(x, y)").ToString(),
              cold->Query("def output(x, y) : tc(x, y)").ToString())
        << "after update: " << update;
  }
}

TEST(SessionMaintain, DeleteHeavyStreamRepairsIndexesInsteadOfRebuilding) {
  // Ten disjoint complete DAGs on six nodes each. Every cycle deletes two
  // edges and re-inserts one deleted earlier, then the reader re-pins, as
  // in a serving loop. Once the first delete and the first insert pass
  // have built the indexes their plans probe, every later pass repairs
  // them from the extents' erase journals: index_builds stays flat, and
  // answers stay byte-identical to a cold session.
  Engine engine;
  engine.Define(kTc);
  std::vector<Tuple> edges;
  for (int block = 0; block < 10; ++block) {
    for (int a = 0; a < 6; ++a) {
      for (int b = a + 1; b < 6; ++b) {
        edges.push_back(Tuple({I(block * 6 + a), I(block * 6 + b)}));
      }
    }
  }
  engine.Insert("edge", edges);
  const std::string read = "def output(x, y) : tc(x, y)";
  std::unique_ptr<Session> warm = engine.OpenSession();
  warm->Query(read);

  auto edit = [&](const char* verb, const Tuple& e) {
    engine.Exec(std::string("def ") + verb + "(:edge, x, y) : x = " +
                e[0].ToString() + " and y = " + e[1].ToString());
  };
  uint64_t builds_after_warmup = 0;
  for (int cycle = 0; cycle < 24; ++cycle) {
    edit("delete", edges[(cycle * 13) % edges.size()]);
    edit("delete", edges[(cycle * 13 + 5) % edges.size()]);
    if (cycle > 0) edit("insert", edges[((cycle - 1) * 13) % edges.size()]);
    warm->Refresh();
    std::unique_ptr<Session> cold = engine.OpenSession();
    ASSERT_EQ(warm->Query(read).ToString(), cold->Query(read).ToString())
        << "cycle " << cycle;
    const datalog::EvalStats& stats = warm->extent_cache().maintain_stats();
    if (cycle <= 1) builds_after_warmup = stats.index_builds;
    EXPECT_EQ(stats.index_builds, builds_after_warmup) << "cycle " << cycle;
  }
  EXPECT_EQ(warm->extent_cache().dropped(), 0u);
  EXPECT_GT(warm->extent_cache().maintain_stats().index_repairs, 0u);
  EXPECT_GT(warm->extent_cache().maintain_stats().delta_deletes, 0u);
}

TEST(DeckerIc, UnrelatedCommitsSkipTheConstraint) {
  Engine engine;
  engine.Define("ic positive(x) requires R(x) implies x > 0");
  engine.Insert("R", {Tuple({I(5)})});

  // First Exec runs the full pass that establishes the verified base.
  engine.Exec("def insert(:other, x) : x = 1");
  uint64_t skipped_before = engine.ic_stats().skipped;
  uint64_t checked_before = engine.ic_stats().checked;

  // This commit never touches R or anything the constraint reads: skipped.
  engine.Exec("def insert(:other, x) : x = 2");
  EXPECT_GT(engine.ic_stats().skipped, skipped_before);
  EXPECT_EQ(engine.ic_stats().checked, checked_before);

  // Touching R re-checks — and still catches the violation.
  EXPECT_THROW(engine.Exec("def insert(:R, x) : x = 0 - 3"),
               ConstraintViolation);
  EXPECT_GT(engine.ic_stats().checked, checked_before);
  EXPECT_TRUE(engine.Base("R").Contains(Tuple({I(5)})));
  EXPECT_FALSE(engine.Base("R").Contains(Tuple({I(-3)})));
}

TEST(DeckerIc, ConstraintOverDerivedRelationSeesBaseChanges) {
  // The constraint reads tc, not edge — the read-set closure must chase
  // through the rules so an edge change still re-checks it.
  Engine engine;
  engine.Define(kTc);
  engine.Define(
      "ic no_loop() requires forall((x, y) | tc(x, y) implies x != y)");
  engine.Insert("edge", {Tuple({I(1), I(2)})});
  engine.Exec("def insert(:other, x) : x = 1");  // full pass

  uint64_t checked_before = engine.ic_stats().checked;
  // Closing the cycle makes tc(1,1) derivable; the commit must abort.
  EXPECT_THROW(engine.Exec("def insert(:edge, x, y) : x = 2 and y = 1"),
               ConstraintViolation);
  EXPECT_GT(engine.ic_stats().checked, checked_before);
  EXPECT_FALSE(engine.Base("edge").Contains(Tuple({I(2), I(1)})));
}

TEST(DeckerIc, DefineForcesAFullPass) {
  Engine engine;
  engine.Define("ic positive(x) requires R(x) implies x > 0");
  engine.Insert("R", {Tuple({I(5)})});
  engine.Exec("def insert(:other, x) : x = 1");  // full pass
  engine.Exec("def insert(:other, x) : x = 2");  // skips
  uint64_t skipped_after_warm = engine.ic_stats().skipped;
  ASSERT_GT(skipped_after_warm, 0u);

  // A new constraint must be evaluated against pre-existing data, so the
  // next commit checks everything even though it touches nothing related.
  engine.Define("ic small(x) requires R(x) implies x < 100");
  uint64_t checked_before = engine.ic_stats().checked;
  engine.Exec("def insert(:other, x) : x = 3");
  EXPECT_GE(engine.ic_stats().checked, checked_before + 2);

  // And the delta regime resumes afterwards.
  engine.Exec("def insert(:other, x) : x = 4");
  EXPECT_GT(engine.ic_stats().skipped, skipped_after_warm);
}

TEST(DeckerIc, NewOrderChecksOnlyItsOwnRows) {
  // The order model of the paper's Figure 1 (as relbench's `orders` runs
  // it): a new_order inserts its lines and deletes the oldest order's.
  // Both constraints read OrderProductQuantity only through seedable
  // occurrences, so after the verifying full pass each commit checks them
  // on its delta rows — specialized, never in full.
  Engine engine;
  engine.Define(
      "def Ord(x) : OrderProductQuantity(x, _, _)\n"
      "ic qty_positive(q) requires OrderProductQuantity(_, _, q) implies "
      "q > 0\n"
      "ic priced(p) requires OrderProductQuantity(_, p, _) implies "
      "ProductPrice(p, _)");
  engine.Insert("ProductPrice", {Tuple({I(1), I(10)}), Tuple({I(2), I(20)})});
  engine.Insert("OrderProductQuantity",
                {Tuple({Value::String("o1"), I(1), I(3)}),
                 Tuple({Value::String("o2"), I(2), I(1)})});
  // The first commit after the bulk loads runs the full pass.
  Engine::IcStats before = engine.ic_stats();
  engine.Exec("def insert(:PaymentOrder, y, x) : y = \"p0\" and x = \"o1\"");
  EXPECT_EQ(engine.ic_stats().full, before.full + 2);
  EXPECT_EQ(engine.ic_stats().specialized, before.specialized);

  const char kNewOrder[] =
      "def insert(:OrderProductQuantity, o, p, q) : o = \"o3\" and "
      "{(1, 2); (2, 5)}(p, q)\n"
      "def delete(:OrderProductQuantity, o, p, q) :\n"
      "  OrderProductQuantity(o, p, q) and o = \"o1\"\n"
      "def delete(:PaymentOrder, y, x) : PaymentOrder(y, x) and x = \"o1\"";
  before = engine.ic_stats();
  engine.Exec(kNewOrder);
  EXPECT_EQ(engine.ic_stats().specialized, before.specialized + 2);
  EXPECT_EQ(engine.ic_stats().full, before.full);
  EXPECT_EQ(engine.ic_stats().checked,
            engine.ic_stats().specialized + engine.ic_stats().full);

  // The specialized check still catches a bad line, with the full check's
  // detail.
  try {
    engine.Exec(
        "def insert(:OrderProductQuantity, o, p, q) : o = \"o4\" and "
        "{(1, 0); (2, 4)}(p, q)");
    FAIL() << "qty_positive should have failed";
  } catch (const ConstraintViolation& v) {
    EXPECT_EQ(v.ic_name(), "qty_positive");
    EXPECT_NE(std::string(v.what()).find("violated by {(0)}"),
              std::string::npos)
        << v.what();
  }

  // A Define, and a bulk Insert, each make the next commit full again.
  engine.Define("ic no_big(q) requires OrderProductQuantity(_, _, q) "
                "implies q < 100");
  before = engine.ic_stats();
  engine.Exec("def insert(:OrderProductQuantity, o, p, q) : o = \"o5\" and "
              "p = 1 and q = 1");
  EXPECT_EQ(engine.ic_stats().full, before.full + 3);
  engine.Insert("ProductPrice", {Tuple({I(3), I(30)})});
  before = engine.ic_stats();
  engine.Exec("def insert(:OrderProductQuantity, o, p, q) : o = \"o6\" and "
              "p = 3 and q = 1");
  EXPECT_EQ(engine.ic_stats().full, before.full + 3);
  EXPECT_EQ(engine.ic_stats().specialized, before.specialized);
  before = engine.ic_stats();
  engine.Exec("def insert(:OrderProductQuantity, o, p, q) : o = \"o7\" and "
              "p = 3 and q = 2");
  EXPECT_EQ(engine.ic_stats().specialized, before.specialized + 3);
  EXPECT_EQ(engine.ic_stats().full, before.full);
}

TEST(DeckerIc, TransactionLocalConstraintsAlwaysRun) {
  Engine engine;
  engine.Insert("R", {Tuple({I(1)})});
  engine.Exec("def insert(:other, x) : x = 1");  // full pass (no ics: trivial)
  EXPECT_THROW(engine.Exec("ic none() requires empty(R)\n"
                           "def insert(:other, x) : x = 2"),
               ConstraintViolation);
  EXPECT_FALSE(engine.Base("other").Contains(Tuple({I(2)})));
}

TEST(RuleExtension, OnlyAffectedComponentsAreInvalidated) {
  // Two independent recursive components; a Define extending only `edge`
  // must not evict the cached fixpoint of the link component.
  Engine engine;
  engine.Define(kTc);
  engine.Define(
      "def lc(x, y) : link(x, y)\n"
      "def lc(x, z) : exists((y) | link(x, y) and lc(y, z))");
  engine.Insert("edge", {Tuple({I(1), I(2)})});
  engine.Insert("link", {Tuple({I(7), I(8)}), Tuple({I(8), I(9)})});

  std::unique_ptr<Session> reader = engine.OpenSession();
  reader->Query("def output(x, y) : tc(x, y)");
  reader->Query("def output(x, y) : lc(x, y)");
  size_t cached = reader->extent_cache().size();
  ASSERT_GE(cached, 2u);

  // The new rule feeds `edge` (hence tc) only.
  engine.Define("def edge(x, y) : extra_edge(x, y)");
  reader->Refresh();
  // The lc entry survived; the tc entry is gone.
  EXPECT_LT(reader->extent_cache().size(), cached);
  EXPECT_GT(reader->extent_cache().size(), 0u);

  uint64_t hits_before = reader->extent_cache().hits();
  EXPECT_EQ(reader->Query("def output(x, y) : lc(x, y)").size(), 3u);
  EXPECT_GT(reader->extent_cache().hits(), hits_before);

  // tc reflects the new rule once extra_edge has content.
  engine.Insert("extra_edge", {Tuple({I(2), I(3)})});
  reader->Refresh();
  EXPECT_EQ(reader->Query("def output(x, y) : tc(x, y)").size(), 3u);
}

}  // namespace
}  // namespace rel
