// orders: the paper's Figure-1 order/payment application as a durable
// store with one session. Reads hit persistent aggregate defs the
// interpreter recomputes per query; writes run the commit pipeline: IC
// checks (one new_order in 20 carries a zero quantity and must abort),
// the WAL with an fsync per commit, and publish. A new_order also deletes
// the oldest order, so the data size stays fixed.

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "base/error.h"
#include "core/engine.h"
#include "layers.h"
#include "oracles.h"
#include "workloads.h"

namespace relbench {
namespace {

constexpr int kProducts = 100, kOrders = 500;

const char kModel[] =
    "def Ord(x) : OrderProductQuantity(x, _, _)\n"
    "def OrderLineAmount(o, p, a) :\n"
    "  exists((q, pr) | OrderProductQuantity(o, p, q) and\n"
    "                   ProductPrice(p, pr) and a = q * pr)\n"
    "def OrderTotal[x in Ord] : sum[OrderLineAmount[x]]\n"
    "def OrderPaymentAmount(x, y, z) : PaymentOrder(y, x) and "
    "PaymentAmount(y, z)\n"
    "def Paid[x in Ord] : sum[OrderPaymentAmount[x]] <++ 0\n"
    "ic qty_positive(q) requires OrderProductQuantity(_, _, q) implies q > 0\n"
    "ic priced(p) requires OrderProductQuantity(_, p, _) implies "
    "ProductPrice(p, _)";

enum Template {
  kOrderLines, kRevenue, kOrderPaid, kOrderTotal, kNewOrder, kPayment
};
const char* const kNames[] = {"order_lines", "revenue_by_product",
                              "order_paid",  "order_total",
                              "new_order",   "payment"};

/// Mix weights, in Template order: 30/20/10/10/20/10 percent. Sorted by
/// cost the reads are lines (3/7), paid, revenue, total, so the read p50
/// falls in the middle of order_paid's share rather than on an edge, and
/// order_total, the slowest template, is the top 10% of ops, so the op p95
/// falls on its median.
const std::vector<int> kWeights = {6, 4, 2, 2, 4, 2};

std::string Quote(const std::string& s) { return "\"" + s + "\""; }

rel::Relation IntAnswer(std::optional<int64_t> v) {
  return v ? IntRows({{*v}}) : rel::Relation();
}

struct State {
  std::unique_ptr<rel::Engine> engine;
  std::unique_ptr<rel::Session> session;
};

std::vector<rel::Tuple> ToTuples(const OrdersData& data, const std::string& rel) {
  std::vector<rel::Tuple> out;
  using rel::Value;
  if (rel == "ProductPrice") {
    for (const auto& [p, price] : data.prices) {
      out.push_back(rel::Tuple({Value::String(p), Value::Int(price)}));
    }
  } else if (rel == "OrderProductQuantity") {
    for (const OrderLine& l : data.lines) {
      out.push_back(rel::Tuple(
          {Value::String(l.order), Value::String(l.product), Value::Int(l.qty)}));
    }
  } else if (rel == "PaymentOrder") {
    for (const Payment& p : data.payments) {
      out.push_back(rel::Tuple({Value::String(p.id), Value::String(p.order)}));
    }
  } else if (rel == "PaymentAmount") {
    for (const Payment& p : data.payments) {
      out.push_back(rel::Tuple({Value::String(p.id), Value::Int(p.amount)}));
    }
  }
  return out;
}

}  // namespace

void RunOrders(const Options& opt, RunContext* ctx) {
  Rng data_rng(opt.seed);
  const OrdersData data = MakeOrders(data_rng, kProducts, kOrders);
  const char* const kRelations[] = {"ProductPrice", "OrderProductQuantity",
                                    "PaymentOrder", "PaymentAmount"};
  std::map<std::string, std::vector<rel::Tuple>> tuples;
  for (const char* r : kRelations) tuples[r] = ToTuples(data, r);

  const std::string store =
      opt.out_dir + "/stores/orders-" + std::to_string(getpid());
  ctx->store_fs = FilesystemType(opt.out_dir + "/stores");
  OrdersMirror mirror(data);
  const std::string warm_order = mirror.live().back();

  auto state = SetupRepeatedly<State>(ctx, [&] {
    auto s = std::make_unique<State>();
    ResetDir(store);
    ctx->SetupCall("core.engine.ctor_ms",
                   [&] { s->engine = std::make_unique<rel::Engine>(); });
    ctx->SetupCall("storage.store.attach_ms", [&] {
      rel::storage::RecoveryReport report = s->engine->AttachStorage(store);
      if (!report.status.ok()) {
        throw std::runtime_error("AttachStorage: " + report.status.ToString());
      }
    });
    ctx->SetupCall("core.engine.define_ms", [&] { s->engine->Define(kModel); });
    ctx->SetupCall("core.engine.insert_ms", [&] {
      for (const char* r : kRelations) s->engine->Insert(r, tuples[r]);
    });
    s->session = s->engine->OpenSession();
    s->session->Query("def output(p, q) : OrderProductQuantity(" +
                      Quote(warm_order) + ", p, q)");
    s->session->Query("def output : sum[(o, a) : OrderLineAmount(o, " +
                      Quote(ProductId(0)) + ", a)]");
    s->session->Query("def output : Paid[" + Quote(warm_order) + "]");
    s->session->Query("def output : OrderTotal[" + Quote(warm_order) + "]");
    // A write that changes nothing still runs the commit pipeline, and the
    // first one after a bulk load checks every constraint in full.
    s->session->Exec(
        "def insert(:PaymentOrder, y, x) : PaymentOrder(y, x) and y = \"-\"");
    return s;
  });

  std::unique_ptr<WalReplayer> wal;
  if (ctx->trace) wal = std::make_unique<WalReplayer>(store + "-replay");
  rel::Engine& engine = *state->engine;
  rel::Session& session = *state->session;
  Rng rng(opt.seed ^ 0x5851f42d4c957f2dull);
  const Zipf zipf(kOrders, 1.1);
  int next_order = data.next_order;
  int next_payment = data.next_payment;
  uint64_t new_orders = 0;

  Mix mix(kWeights);

  ctx->timed_s = ClosedLoop(ctx, opt.seconds, [&] {
    const Template t = static_cast<Template>(mix.Next(rng));
    const std::deque<std::string>& live = mirror.live();
    const std::string order =
        live[live.size() - 1 - std::min(zipf.Sample(rng), live.size() - 1)];
    const uint64_t op = ctx->BeginOp(kNames[t]);
    OpRecord rec;
    rec.tmpl = kNames[t];

    if (t != kNewOrder && t != kPayment) {
      std::string source;
      rel::Relation want;
      if (t == kOrderLines) {
        source = "def output(p, q) : OrderProductQuantity(" + Quote(order) +
                 ", p, q)";
        for (const auto& [p, q] : mirror.Lines(order)) {
          want.Insert(rel::Tuple({rel::Value::String(p), rel::Value::Int(q)}));
        }
      } else if (t == kRevenue) {
        const std::string product = ProductId(static_cast<int>(rng.Below(kProducts)));
        source = "def output : sum[(o, a) : OrderLineAmount(o, " +
                 Quote(product) + ", a)]";
        want = IntAnswer(mirror.Revenue(product));
      } else if (t == kOrderPaid) {
        source = "def output : Paid[" + Quote(order) + "]";
        want = IntAnswer(mirror.Paid(order));
      } else {
        source = "def output : OrderTotal[" + Quote(order) + "]";
        want = IntAnswer(mirror.Total(order));
      }
      CacheCounters before;
      if (ctx->trace) before = ReadCounters(session.extent_cache());
      rel::Relation got;
      std::string error;
      Clock::time_point t0 = Clock::now();
      try {
        got = session.Query(source);
      } catch (const std::exception& ex) {
        error = ex.what();
      }
      Clock::time_point t1 = Clock::now();
      const double ms = MsBetween(t0, t1);
      ctx->AddLatency("read", rec.tmpl, ms);
      const std::string bad = error.empty() ? Mismatch(got, want) : "error: " + error;
      if (!bad.empty()) ctx->Fail(rec.tmpl + " " + source + ": " + bad);
      if (ctx->trace && error.empty()) {
        rec.op_ms = ms;
        rec.ms["core.session.query_ms"] = ms;
        rec.counts["data.output_tuples"] = static_cast<double>(got.size());
        SpanScope scope{ctx->tracer, op, rec.tmpl,
                        ctx->tracer->Add(rec.tmpl, "op", op, rec.tmpl, 0, t0, t1)};
        ReplayRead(session.snapshot(), source, session.last_lowering_stats(),
                   ms, scope, &rec);
        AddCacheDelta(before, ReadCounters(session.extent_cache()), &rec);
        ctx->AddOp(std::move(rec));
      }
      return MsBetween(t1, Clock::now());
    }

    // Writes: build the transaction and its expected outcome.
    std::string source;
    std::vector<std::pair<std::string, int64_t>> lines;
    std::string new_id, payment_id, oldest;
    int64_t amount = 0;
    bool must_abort = false;
    size_t want_inserted = 0, want_deleted = 0;
    if (t == kNewOrder) {
      new_id = OrderId(next_order++);
      must_abort = ++new_orders % 20 == 0;
      std::set<int> chosen;
      const int count = static_cast<int>(rng.Between(1, 5));
      while (static_cast<int>(chosen.size()) < count) {
        chosen.insert(static_cast<int>(rng.Below(kProducts)));
      }
      for (int p : chosen) lines.push_back({ProductId(p), rng.Between(1, 10)});
      if (must_abort) lines[rng.Below(lines.size())].second = 0;
      oldest = live.front();
      for (const auto& [p, q] : lines) {
        source += "def insert(:OrderProductQuantity, o, p, q) : o = " +
                  Quote(new_id) + " and p = " + Quote(p) +
                  " and q = " + std::to_string(q) + "\n";
      }
      source +=
          "def delete(:OrderProductQuantity, o, p, q) :\n"
          "  OrderProductQuantity(o, p, q) and o = " + Quote(oldest) + "\n"
          "def delete(:PaymentOrder, y, x) : PaymentOrder(y, x) and x = " +
          Quote(oldest) + "\n"
          "def delete(:PaymentAmount, y, z) :\n"
          "  PaymentAmount(y, z) and PaymentOrder(y, " + Quote(oldest) + ")";
      want_inserted = lines.size();
      want_deleted = mirror.Lines(oldest).size() + 2 * mirror.PaymentCount(oldest);
    } else {
      payment_id = PaymentId(next_payment++);
      amount = rng.Between(1, 200);
      source = "def insert(:PaymentOrder, y, x) : y = " + Quote(payment_id) +
               " and x = " + Quote(order) +
               "\n"
               "def insert(:PaymentAmount, y, z) : y = " +
               Quote(payment_id) + " and z = " + std::to_string(amount);
      want_inserted = 2;
    }

    const rel::Engine::IcStats ic_before = engine.ic_stats();
    CacheCounters before, writer_before;
    uint64_t wal_before = 0;
    if (ctx->trace) {
      before = ReadCounters(session.extent_cache());
      writer_before = ReadCounters(engine.writer_extent_cache());
      wal_before = WalBytes(store);
    }
    rel::TxnResult result;
    std::string error, violated;
    Clock::time_point t0 = Clock::now();
    try {
      result = session.Exec(source);
    } catch (const rel::ConstraintViolation& v) {
      violated = v.ic_name();
    } catch (const std::exception& ex) {
      error = ex.what();
    }
    Clock::time_point t1 = Clock::now();
    const double ms = MsBetween(t0, t1);
    ctx->AddLatency("write", rec.tmpl, ms);

    const bool committed = error.empty() && violated.empty();
    std::string bad;
    if (must_abort) {
      if (violated != "qty_positive") {
        bad = committed ? "committed, want a qty_positive abort"
                        : "want a qty_positive abort, got " +
                              (violated.empty() ? error : "abort by " + violated);
      }
    } else if (!committed) {
      bad = violated.empty() ? "error: " + error : "aborted by " + violated;
    } else if (result.inserted != want_inserted ||
               result.deleted != want_deleted) {
      bad = "+" + std::to_string(result.inserted) + " -" +
            std::to_string(result.deleted) + ", want +" +
            std::to_string(want_inserted) + " -" + std::to_string(want_deleted);
    }
    if (!bad.empty()) ctx->Fail(rec.tmpl + ": " + bad);
    if (committed) {
      if (t == kNewOrder) {
        mirror.NewOrder(new_id, lines);
      } else {
        mirror.AddPayment(payment_id, order, amount);
      }
    }
    if (ctx->trace) {
      rec.op_ms = ms;
      rec.ms["core.session.exec_ms"] = ms;
      const rel::Engine::IcStats& ic = engine.ic_stats();
      rec.counts["core.commit.ic_checked"] =
          static_cast<double>(ic.checked - ic_before.checked);
      rec.counts["core.commit.ic_skipped"] =
          static_cast<double>(ic.skipped - ic_before.skipped);
      rec.counts["core.commit.aborts"] = violated.empty() ? 0 : 1;
      SpanScope scope{ctx->tracer, op, rec.tmpl,
                      ctx->tracer->Add(rec.tmpl, "op", op, rec.tmpl, 0, t0, t1)};
      const auto& deltas = session.snapshot().recent_deltas;
      if (committed && !deltas.empty() &&
          deltas.back()->to_version == session.snapshot_version()) {
        rec.counts["core.commit.commits"] = 1;
        rec.counts["storage.wal.bytes"] =
            static_cast<double>(WalBytes(store) - wal_before);
        wal->Replay(*deltas.back(), scope, &rec);
      }
      AddCacheDelta(before, ReadCounters(session.extent_cache()), &rec);
      AddCacheDelta(writer_before, ReadCounters(engine.writer_extent_cache()),
                    &rec);
      ctx->AddOp(std::move(rec));
    }
    return MsBetween(t1, Clock::now());
  });

  state.reset();
  wal.reset();
  std::filesystem::remove_all(store);
  std::filesystem::remove_all(store + "-replay");
}

}  // namespace relbench
