// reach_serve and reach_update: one parts hierarchy Sub(p, c) and its
// persistent closure Requires, used two ways. reach_serve reads it over
// TCP, so after warm-up every recursive read is an extent-cache hit.
// reach_update toggles one edge per cycle on a durable store and reads the
// changed part's requirements from a second session, so the cache is kept
// current by incremental maintenance rather than only hit.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "layers.h"
#include "oracles.h"
#include "server/protocol.h"
#include "server/server.h"
#include "workloads.h"

namespace relbench {
namespace {

constexpr int kDagEdges = 1152;
constexpr int kConnections = 2;  // client threads; the server runs 2 workers

const char kModel[] =
    "def Requires(x, y) : Sub(x, y)\n"
    "def Requires(x, y) : exists((z) | Sub(x, z) and Requires(z, y))";

std::string RequiresQuery(int part) {
  return "def output(c) : Requires(" + std::to_string(part) + ", c)";
}

std::string SubQuery(int part) {
  return "def output(c) : Sub(" + std::to_string(part) + ", c)";
}

std::vector<rel::Tuple> SubTuples(const std::vector<Edge>& edges) {
  std::vector<rel::Tuple> out;
  for (const Edge& e : edges) {
    out.push_back(rel::Tuple({rel::Value::Int(e.first), rel::Value::Int(e.second)}));
  }
  return out;
}

/// A blocking line-protocol client on one loopback connection.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const std::string why = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("connect: " + why);
    }
  }
  ~LineClient() { ::close(fd_); }
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one request line; returns the response line without its newline.
  std::string Request(const std::string& line) {
    const std::string out = line + "\n";
    for (size_t sent = 0; sent < out.size();) {
      ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      size_t eol = buffer_.find('\n');
      if (eol != std::string::npos) {
        std::string response = buffer_.substr(0, eol);
        buffer_.erase(0, eol + 1);
        return response;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed by server");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct ServeState {
  std::unique_ptr<rel::Engine> engine;
  std::unique_ptr<rel::server::LineServer> server;
  std::vector<std::unique_ptr<LineClient>> clients;
};

struct UpdateState {
  std::unique_ptr<rel::Engine> engine;
  std::unique_ptr<rel::Session> writer, reader;
};

}  // namespace

void RunReachServe(const Options& opt, RunContext* ctx) {
  Rng data_rng(opt.seed);
  const PartsDag dag = MakePartsDag(data_rng, kDagEdges);
  const std::vector<rel::Tuple> sub = SubTuples(dag.edges);
  const std::vector<std::vector<int>> adj = Adjacency(dag.n, dag.edges);
  // Expected response lines, per part.
  std::vector<std::string> want_requires(dag.n), want_sub(dag.n);
  for (int p = 0; p < dag.n; ++p) {
    std::vector<int> children = adj[p];
    std::sort(children.begin(), children.end());
    want_requires[p] = "ok " + rel::server::EscapeLine(
                                   IntSet(Reachable(adj, p, false)).ToString());
    want_sub[p] = "ok " + rel::server::EscapeLine(IntSet(children).ToString());
  }
  // Zipf ranks map to parts through a seeded permutation.
  std::vector<int> by_rank(dag.n);
  std::iota(by_rank.begin(), by_rank.end(), 0);
  for (int i = dag.n - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[data_rng.Below(i + 1)]);
  }

  auto state = SetupRepeatedly<ServeState>(ctx, [&] {
    auto s = std::make_unique<ServeState>();
    ctx->SetupCall("core.engine.ctor_ms",
                   [&] { s->engine = std::make_unique<rel::Engine>(); });
    ctx->SetupCall("core.engine.define_ms", [&] { s->engine->Define(kModel); });
    ctx->SetupCall("core.engine.insert_ms", [&] { s->engine->Insert("Sub", sub); });
    rel::server::ServerOptions options;
    options.num_workers = kConnections;
    s->server = std::make_unique<rel::server::LineServer>(s->engine.get(), options);
    rel::Status started = s->server->Start();
    if (!started.ok()) throw std::runtime_error("server: " + started.ToString());
    for (int i = 0; i < kConnections; ++i) {
      s->clients.push_back(std::make_unique<LineClient>(s->server->port()));
      for (const std::string& q : {RequiresQuery(0), SubQuery(0)}) {
        if (s->clients.back()->Request("query " + q).rfind("ok", 0) != 0) {
          throw std::runtime_error("warm-up request failed");
        }
      }
    }
    return s;
  });

  // The traced run replays each request line through an in-process handler
  // per connection, pinned to the same (never changing) snapshot.
  std::vector<std::unique_ptr<rel::server::SessionHandler>> handlers;
  if (ctx->trace) {
    for (int i = 0; i < kConnections; ++i) {
      handlers.push_back(
          std::make_unique<rel::server::SessionHandler>(state->engine.get()));
      handlers.back()->Handle("query " + RequiresQuery(0));
    }
  }

  const Zipf zipf(dag.n, 1.1);
  std::vector<double> timed_s(kConnections, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(opt.seed ^ (0x9e3779b97f4a7c15ull * static_cast<uint64_t>(c + 1)));
      Mix mix({9, 1});  // Requires 90%, Sub 10%
      LineClient& client = *state->clients[c];
      try {
        timed_s[c] = ClosedLoop(ctx, opt.seconds, [&] {
          const int part = by_rank[zipf.Sample(rng)];
          const bool requires = mix.Next(rng) == 0;
          const std::string tmpl = requires ? "requires" : "sub";
          const std::string source = requires ? RequiresQuery(part) : SubQuery(part);
          const std::string line = "query " + source;
          const uint64_t op = ctx->BeginOp(tmpl);
          Clock::time_point t0 = Clock::now();
          const std::string response = client.Request(line);
          Clock::time_point t1 = Clock::now();
          const double ms = MsBetween(t0, t1);
          ctx->AddLatency("read", tmpl, ms);
          const std::string& want = requires ? want_requires[part] : want_sub[part];
          if (response != want) {
            ctx->Fail(tmpl + "(" + std::to_string(part) + "): got " +
                      response.substr(0, 80) + ", want " + want.substr(0, 80));
          }
          if (ctx->trace) {
            rel::server::SessionHandler& handler = *handlers[c];
            rel::Session& session = handler.session();
            OpRecord rec;
            rec.tmpl = tmpl;
            rec.op_ms = ms;
            SpanScope scope{ctx->tracer, op, tmpl,
                            ctx->tracer->Add(tmpl, "op", op, tmpl, 0, t0, t1)};
            const CacheCounters before = ReadCounters(session.extent_cache());
            Clock::time_point h0 = Clock::now();
            handler.Handle(line);
            Clock::time_point h1 = Clock::now();
            AddCacheDelta(before, ReadCounters(session.extent_cache()), &rec);
            scope.Add("server.protocol.handle", h0, h1);
            const double handle_ms = MsBetween(h0, h1);
            rec.ms["server.tcp.rtt_ms"] = ms;
            rec.ms["server.protocol.handle_ms"] = handle_ms;
            rec.ms["server.tcp.overhead_ms"] = ms - handle_ms;
            Clock::time_point q0 = Clock::now();
            rel::Relation got = session.Query(source);
            Clock::time_point q1 = Clock::now();
            scope.Add("core.session.query", q0, q1);
            rec.ms["core.session.query_ms"] = MsBetween(q0, q1);
            rec.counts["data.output_tuples"] = static_cast<double>(got.size());
            ReplayRead(session.snapshot(), source, session.last_lowering_stats(),
                       MsBetween(q0, q1), scope, &rec);
            ctx->AddOp(std::move(rec));
          }
          return MsBetween(t1, Clock::now());
        });
      } catch (const std::exception& ex) {
        ctx->Fail(std::string("connection ") + std::to_string(c) + ": " + ex.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ctx->timed_s = std::accumulate(timed_s.begin(), timed_s.end(), 0.0) / kConnections;
}

void RunReachUpdate(const Options& opt, RunContext* ctx) {
  Rng data_rng(opt.seed);
  const PartsDag dag = MakePartsDag(data_rng, kDagEdges);
  const std::vector<rel::Tuple> sub = SubTuples(dag.edges);
  const std::string store =
      opt.out_dir + "/stores/reach_update-" + std::to_string(getpid());
  ctx->store_fs = FilesystemType(opt.out_dir + "/stores");

  auto state = SetupRepeatedly<UpdateState>(ctx, [&] {
    auto s = std::make_unique<UpdateState>();
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
    ctx->SetupCall("core.engine.insert_ms", [&] { s->engine->Insert("Sub", sub); });
    s->writer = s->engine->OpenSession();
    s->reader = s->engine->OpenSession();
    s->reader->Query(RequiresQuery(0));
    s->writer->Exec("def insert(:Sub, x, y) : Sub(x, y) and x = -1");
    return s;
  });

  std::unique_ptr<WalReplayer> wal;
  if (ctx->trace) wal = std::make_unique<WalReplayer>(store + "-replay");
  rel::Engine& engine = *state->engine;
  rel::Session& writer = *state->writer;
  rel::Session& reader = *state->reader;
  std::vector<Edge> present = dag.edges;
  std::set<Edge> present_set(present.begin(), present.end());
  std::vector<std::vector<int>> adj = Adjacency(dag.n, dag.edges);
  Rng rng(opt.seed ^ 0x5851f42d4c957f2dull);
  uint64_t cycle = 0;
  int parent = 0;

  ctx->timed_s = ClosedLoop(ctx, opt.seconds, [&] {
    // Alternate deleting a present edge and inserting an absent one from
    // the same parent, so |Sub| and every out-degree stay fixed and the
    // closure's size does not drift over the run.
    const bool insert = cycle++ % 2 == 1;
    size_t victim = 0;
    Edge e;
    if (insert) {
      e = RandomAbsentDagEdge(rng, dag, parent, present_set);
    } else {
      victim = rng.Below(present.size());
      e = present[victim];
      parent = e.first;
    }
    const std::string xy = "x = " + std::to_string(e.first) +
                           " and y = " + std::to_string(e.second);
    const std::string source =
        insert ? "def insert(:Sub, x, y) : " + xy
               : "def delete(:Sub, x, y) : Sub(x, y) and " + xy;
    const std::string query = RequiresQuery(e.first);
    const std::string tmpl = insert ? "insert_edge" : "delete_edge";
    const uint64_t op = ctx->BeginOp(tmpl);

    CacheCounters before, writer_before;
    uint64_t wal_before = 0;
    if (ctx->trace) {
      before = ReadCounters(reader.extent_cache());
      writer_before = ReadCounters(engine.writer_extent_cache());
      wal_before = WalBytes(store);
    }
    rel::TxnResult result;
    rel::Relation got;
    std::string error;
    Clock::time_point t0 = Clock::now(), t1 = t0, t2 = t0, t3 = t0;
    try {
      result = writer.Exec(source);
      t1 = Clock::now();
      reader.Refresh();
      t2 = Clock::now();
      got = reader.Query(query);
      t3 = Clock::now();
    } catch (const std::exception& ex) {
      error = ex.what();
    }
    Clock::time_point end = Clock::now();
    if (!error.empty()) {
      ctx->Fail(tmpl + " " + xy + ": error: " + error);
      return 0.0;
    }
    ctx->AddLatency("write", "", MsBetween(t0, t1));
    ctx->AddLatency("read", "", MsBetween(t2, t3));
    ctx->AddLatency("fresh", tmpl, MsBetween(t0, t3));

    if (insert) {
      present.push_back(e);
      present_set.insert(e);
      adj[e.first].push_back(e.second);
    } else {
      present[victim] = present.back();
      present.pop_back();
      present_set.erase(e);
      std::vector<int>& out = adj[e.first];
      out.erase(std::find(out.begin(), out.end(), e.second));
    }
    std::string bad = Mismatch(got, IntSet(Reachable(adj, e.first, false)));
    if ((insert ? result.inserted : result.deleted) != 1) {
      bad += " (transaction applied " + std::to_string(result.inserted) +
             " inserts, " + std::to_string(result.deleted) + " deletes)";
    }
    if (!bad.empty()) ctx->Fail(tmpl + " " + xy + ": " + bad);

    if (ctx->trace) {
      OpRecord rec;
      rec.tmpl = tmpl;
      rec.op_ms = MsBetween(t0, t3);
      rec.ms["core.session.exec_ms"] = MsBetween(t0, t1);
      rec.ms["core.session.refresh_ms"] = MsBetween(t1, t2);
      rec.ms["core.session.query_ms"] = MsBetween(t2, t3);
      rec.counts["data.output_tuples"] = static_cast<double>(got.size());
      const uint64_t parent = ctx->tracer->Add(tmpl, "op", op, tmpl, 0, t0, t3);
      ctx->tracer->Add("core.session.exec", "call", op, tmpl, parent, t0, t1);
      ctx->tracer->Add("core.session.refresh", "call", op, tmpl, parent, t1, t2);
      ctx->tracer->Add("core.session.query", "call", op, tmpl, parent, t2, t3);
      SpanScope scope{ctx->tracer, op, tmpl, parent};
      rec.counts["core.commit.commits"] = 1;
      rec.counts["storage.wal.bytes"] =
          static_cast<double>(WalBytes(store) - wal_before);
      const auto& deltas = writer.snapshot().recent_deltas;
      if (!deltas.empty()) wal->Replay(*deltas.back(), scope, &rec);
      AddCacheDelta(before, ReadCounters(reader.extent_cache()), &rec);
      AddCacheDelta(writer_before, ReadCounters(engine.writer_extent_cache()), &rec);
      ReplayRead(reader.snapshot(), query, reader.last_lowering_stats(),
                 MsBetween(t2, t3), scope, &rec);
      ctx->AddOp(std::move(rec));
    }
    return MsBetween(end, Clock::now());
  });

  state.reset();
  wal.reset();
  std::filesystem::remove_all(store);
  std::filesystem::remove_all(store + "-replay");
}

}  // namespace relbench
