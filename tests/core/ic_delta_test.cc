// Differential test of delta-specialized integrity checking
// (core/ic_check.h): random commit streams run through an engine that
// specializes its constraint checks to each commit's delta, and every
// commit must end exactly as a full check of the same post-state does.
// The reference is CheckConstraints() on a fresh engine bulk-loaded with
// that post-state, which always evaluates every constraint in full: the
// commit succeeds iff the reference passes, and an aborted commit raises
// ConstraintViolation with the same constraint name and detail text.
//
// The streams cover seedable constraints (the order model's
// `qty_positive` and `priced`, an edge constraint under `forall`, and
// `R(x) implies S(x)` with deletes from S), commits that insert into and
// delete from the same relation, and every fallback to the full check: an
// aggregate (`count[R] < 6`), a recursive def, a derived def, a
// transaction-local constraint, and the first commit after Define and
// after a bulk Insert.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/error.h"
#include "base/rng.h"
#include "core/engine.h"
#include "data/tuple.h"
#include "data/value.h"

namespace rel {
namespace {

using Rows = std::map<std::string, std::set<Tuple>>;

Value I(int64_t v) { return Value::Int(v); }

/// How a commit (or a full check) ended: "ok", or the violated constraint
/// and the exception text, which carries the detail.
std::string Ending(const std::function<void()>& run) {
  try {
    run();
    return "ok";
  } catch (const ConstraintViolation& v) {
    return v.ic_name() + ": " + v.what();
  }
}

/// `{(:R, 1, 2); (:S, 3)}` for the control relations.
std::string ControlLiteral(const std::vector<std::pair<std::string, Tuple>>&
                               rows) {
  std::string out = "{";
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += "; ";
    out += "(:" + rows[i].first;
    for (const Value& v : rows[i].second.values()) out += ", " + v.ToString();
    out += ")";
  }
  return out + "}";
}

/// The full-check verdict on `rows` under `model`.
std::string ReferenceEnding(const std::vector<std::string>& model,
                            const Rows& rows) {
  Engine ref;
  for (const std::string& source : model) ref.Define(source);
  for (const auto& [name, tuples] : rows) {
    ref.Insert(name, std::vector<Tuple>(tuples.begin(), tuples.end()));
  }
  return Ending([&] { ref.CheckConstraints(); });
}

/// A commit stream over one model. The engine under test and the mirror
/// `rows` stay in step: a commit that ends "ok" is applied to the mirror.
class Stream {
 public:
  explicit Stream(uint64_t seed) : rng_(seed) {}

  void Define(const std::string& source) {
    model_.push_back(source);
    engine_.Define(source);
  }

  void BulkInsert(const std::string& name, const std::vector<Tuple>& tuples) {
    engine_.Insert(name, tuples);
    rows_[name].insert(tuples.begin(), tuples.end());
  }

  /// Runs one commit deleting `deletes` and inserting `inserts` (plus any
  /// transaction-local `extra` rules) and checks it against the reference.
  void Commit(const std::vector<std::pair<std::string, Tuple>>& deletes,
              const std::vector<std::pair<std::string, Tuple>>& inserts,
              const std::string& extra = "") {
    Rows post = rows_;
    for (const auto& [name, t] : deletes) post[name].erase(t);
    for (const auto& [name, t] : inserts) post[name].insert(t);
    std::vector<std::string> model = model_;
    if (!extra.empty()) model.push_back(extra);
    const std::string want = ReferenceEnding(model, post);

    std::string source = extra + "\ndef output : true\n";
    if (!deletes.empty()) {
      source += "def delete : " + ControlLiteral(deletes) + "\n";
    }
    if (!inserts.empty()) {
      source += "def insert : " + ControlLiteral(inserts) + "\n";
    }
    const std::string got = Ending([&] { engine_.Exec(source); });
    ASSERT_EQ(got, want) << "commit " << commits_ << ":\n" << source;
    if (got == "ok") {
      rows_ = std::move(post);
    } else {
      ++aborts_;
    }
    for (const auto& [name, tuples] : rows_) {
      ASSERT_EQ(engine_.Base(name).size(), tuples.size())
          << name << " after commit " << commits_;
    }
    ++commits_;
  }

  /// A random existing row of `name`, if any.
  bool PickRow(const std::string& name, Tuple* out) {
    const std::set<Tuple>& rows = rows_[name];
    if (rows.empty()) return false;
    auto it = rows.begin();
    std::advance(it, static_cast<long>(rng_.NextBelow(rows.size())));
    *out = *it;
    return true;
  }

  int64_t Below(uint64_t n) { return static_cast<int64_t>(rng_.NextBelow(n)); }
  Engine& engine() { return engine_; }
  /// Commits that ended in a violation; the streams must see some of both.
  int aborts() const { return aborts_; }
  int commits() const { return commits_; }
  const std::set<Tuple>& rows(const std::string& name) { return rows_[name]; }

 private:
  Rng rng_;
  Engine engine_;
  std::vector<std::string> model_;
  Rows rows_;
  int commits_ = 0;
  int aborts_ = 0;
};

/// `k` random deletes of existing rows of `name`.
void AddDeletes(Stream& s, const std::string& name, int k,
                std::vector<std::pair<std::string, Tuple>>* out) {
  for (int i = 0; i < k; ++i) {
    Tuple t;
    if (s.PickRow(name, &t)) out->push_back({name, t});
  }
}

const char kOrderModel[] =
    "def Ord(x) : OrderProductQuantity(x, _, _)\n"
    "ic qty_positive(q) requires OrderProductQuantity(_, _, q) implies q > 0\n"
    "ic priced(p) requires OrderProductQuantity(_, p, _) implies "
    "ProductPrice(p, _)";

TEST(IcDelta, OrderStreamMatchesTheFullCheck) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Stream s(seed);
    s.Define(kOrderModel);
    std::vector<Tuple> prices;
    for (int p = 0; p < 8; ++p) prices.push_back(Tuple({I(p), I(10 + p)}));
    s.BulkInsert("ProductPrice", prices);
    s.Commit({}, {});  // the full pass that verifies the base
    const uint64_t full_after_warmup = s.engine().ic_stats().full;
    for (int step = 0; step < 40; ++step) {
      std::vector<std::pair<std::string, Tuple>> del, ins;
      AddDeletes(s, "OrderProductQuantity", static_cast<int>(s.Below(3)),
                 &del);
      const int64_t order = 100 + step;
      for (int64_t k = s.Below(3) + 1; k > 0; --k) {
        // Products 8 and 9 have no price; quantity 0 is not positive.
        ins.push_back({"OrderProductQuantity",
                       Tuple({Value::String("o" + std::to_string(order)),
                              I(s.Below(10)), I(s.Below(6))})});
      }
      if (s.Below(5) == 0) {
        AddDeletes(s, "ProductPrice", 1, &del);  // negative occurrence
      }
      if (s.Below(5) == 0) {
        ins.push_back({"ProductPrice", Tuple({I(s.Below(10)), I(20)})});
      }
      s.Commit(del, ins);
    }
    EXPECT_EQ(s.engine().ic_stats().full, full_after_warmup)
        << "seed " << seed << ": a seedable constraint was checked in full";
    EXPECT_GT(s.engine().ic_stats().specialized, 0u);
    EXPECT_GT(s.aborts(), 0) << "seed " << seed;
    EXPECT_LT(s.aborts(), s.commits()) << "seed " << seed;
  }
}

TEST(IcDelta, ForallEdgeAndInclusionStreamsMatchTheFullCheck) {
  for (uint64_t seed : {4u, 5u, 6u}) {
    Stream s(seed);
    s.Define(
        "ic no_self_loop requires forall((x, y) | edge(x, y) implies x != y)\n"
        "ic covered(x) requires R(x) implies S(x)");
    std::vector<Tuple> s_rows;
    for (int x = 0; x < 6; ++x) s_rows.push_back(Tuple({I(x)}));
    s.BulkInsert("S", s_rows);
    s.Commit({}, {});
    const uint64_t full_after_warmup = s.engine().ic_stats().full;
    for (int step = 0; step < 50; ++step) {
      std::vector<std::pair<std::string, Tuple>> del, ins;
      AddDeletes(s, "edge", static_cast<int>(s.Below(2)), &del);
      AddDeletes(s, "S", static_cast<int>(s.Below(2)), &del);
      AddDeletes(s, "R", static_cast<int>(s.Below(2)), &del);
      for (int64_t k = s.Below(3); k > 0; --k) {
        ins.push_back({"edge", Tuple({I(s.Below(5)), I(s.Below(5))})});
      }
      if (s.Below(2) == 0) ins.push_back({"R", Tuple({I(s.Below(8))})});
      if (s.Below(3) == 0) ins.push_back({"S", Tuple({I(s.Below(8))})});
      // The same relation both ways in one commit, re-inserting a row the
      // commit deletes now and then.
      if (!del.empty() && s.Below(4) == 0) ins.push_back(del.front());
      s.Commit(del, ins);
    }
    EXPECT_EQ(s.engine().ic_stats().full, full_after_warmup) << "seed " << seed;
    EXPECT_GT(s.aborts(), 0) << "seed " << seed;
    EXPECT_LT(s.aborts(), s.commits()) << "seed " << seed;
  }
}

TEST(IcDelta, FallbacksMatchTheFullCheck) {
  for (uint64_t seed : {7u, 8u}) {
    Stream s(seed);
    s.Define(
        "def tc(x, y) : link(x, y)\n"
        "def tc(x, z) : exists((y) | link(x, y) and tc(y, z))\n"
        "def big(x) : R(x) and x > 3\n"
        "ic few() requires count[R] < 6\n"
        "ic acyclic requires forall((x, y) | tc(x, y) implies x != y)\n"
        "ic bounded(x) requires big(x) implies x < 9");
    s.Commit({}, {});
    for (int step = 0; step < 40; ++step) {
      std::vector<std::pair<std::string, Tuple>> del, ins;
      AddDeletes(s, "R", static_cast<int>(s.Below(3)), &del);
      AddDeletes(s, "link", static_cast<int>(s.Below(2)), &del);
      for (int64_t k = s.Below(3); k > 0; --k) {
        ins.push_back({"R", Tuple({I(s.Below(11))})});
      }
      if (s.Below(2) == 0) {
        ins.push_back({"link", Tuple({I(s.Below(5)), I(s.Below(5))})});
      }
      std::string local;
      if (s.Below(4) == 0) {
        local = "ic local_no_seven(x) requires R(x) implies x != 7";
      }
      std::set<Tuple> r_post = s.rows("R");
      for (const auto& [name, t] : del) {
        if (name == "R") r_post.erase(t);
      }
      for (const auto& [name, t] : ins) {
        if (name == "R") r_post.insert(t);
      }
      const bool r_changed = r_post != s.rows("R");
      const uint64_t full_before = s.engine().ic_stats().full;
      s.Commit(del, ins, local);
      if (r_changed) {
        // count[R] and big read R through an aggregate and a derived def.
        EXPECT_GE(s.engine().ic_stats().full, full_before + 2);
      }
      if (step == 20) {
        // A bulk load is unchecked, and a Define adds a constraint that
        // has never seen the data: the next commit checks in full.
        s.BulkInsert("R", {Tuple({I(s.Below(11))})});
        s.Define("ic no_ten(x) requires R(x) implies x != 10");
      }
    }
    EXPECT_GT(s.aborts(), 0) << "seed " << seed;
    EXPECT_LT(s.aborts(), s.commits()) << "seed " << seed;
  }
}

TEST(IcDelta, RelationReadOutsideAnOccurrenceIsCheckedInFull) {
  // R is an occurrence of `dense`, but count[R] reads it too: deleting a
  // row can break the constraint for a row the commit never touched.
  Stream s(11);
  s.Define("ic dense(x) requires R(x) implies x < count[R] + 8");
  s.Commit({}, {{"R", Tuple({I(1)})}, {"R", Tuple({I(9)})}});
  s.Commit({{"R", Tuple({I(1)})}}, {});  // aborts: 9 >= 1 + 8
  EXPECT_EQ(s.aborts(), 1);
  EXPECT_EQ(s.engine().ic_stats().specialized, 0u);

  // `iff` shares each operand between both polarities.
  Stream t(12);
  t.Define("ic twin(x) requires A(x) iff B(x)");
  t.Commit({}, {{"A", Tuple({I(1)})}, {"B", Tuple({I(1)})}});
  t.Commit({}, {{"A", Tuple({I(2)})}, {"B", Tuple({I(2)})}});
  t.Commit({{"B", Tuple({I(1)})}}, {});  // aborts: A(1), not B(1)
  t.Commit({}, {{"B", Tuple({I(3)})}});  // aborts: B(3), not A(3)
  EXPECT_EQ(t.aborts(), 2);
  EXPECT_EQ(t.engine().ic_stats().specialized, 0u);
}

TEST(IcDelta, FirstCommitAfterDefineOrInsertIsFull) {
  Stream s(9);
  s.Define("ic covered(x) requires R(x) implies S(x)");
  s.BulkInsert("S", {Tuple({I(1)}), Tuple({I(2)})});
  s.Commit({}, {{"R", Tuple({I(1)})}});  // full: the base is unverified
  EXPECT_EQ(s.engine().ic_stats().full, 1u);
  s.Commit({}, {{"R", Tuple({I(2)})}});
  EXPECT_EQ(s.engine().ic_stats().specialized, 1u);

  // A bulk load that breaks the constraint: the next commit must check the
  // whole state (and abort), not just its own row.
  s.BulkInsert("R", {Tuple({I(5)})});
  s.Commit({}, {{"S", Tuple({I(3)})}});
  EXPECT_EQ(s.engine().ic_stats().full, 2u);
  s.Commit({}, {{"S", Tuple({I(5)})}});  // repairs it

  s.Define("ic small(x) requires R(x) implies x < 5");
  s.Commit({}, {{"S", Tuple({I(4)})}});  // full again, and aborts
  EXPECT_EQ(s.engine().ic_stats().full, 5u);
  EXPECT_EQ(s.engine().ic_stats().checked,
            s.engine().ic_stats().specialized + s.engine().ic_stats().full);
}

TEST(IcDelta, ParallelChecksMatchTheFullCheck) {
  Stream s(10);
  s.engine().options().num_threads = 4;
  s.Define(std::string(kOrderModel) +
           "\nic few_lines() requires count[OrderProductQuantity] < 12");
  s.BulkInsert("ProductPrice", {Tuple({I(0), I(3)}), Tuple({I(1), I(4)})});
  s.Commit({}, {});
  for (int step = 0; step < 30; ++step) {
    std::vector<std::pair<std::string, Tuple>> del, ins;
    AddDeletes(s, "OrderProductQuantity", static_cast<int>(s.Below(3)), &del);
    for (int64_t k = s.Below(3) + 1; k > 0; --k) {
      ins.push_back({"OrderProductQuantity",
                     Tuple({I(step), I(s.Below(3)), I(s.Below(4))})});
    }
    s.Commit(del, ins);
  }
  EXPECT_GT(s.engine().ic_stats().specialized, 0u);
  EXPECT_GT(s.aborts(), 0);
  EXPECT_LT(s.aborts(), s.commits());
}

}  // namespace
}  // namespace rel
