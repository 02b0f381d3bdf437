// LineServer: a TCP server speaking the Rel line protocol (protocol.h),
// admitting N concurrent client sessions over the shared thread pool.
//
// Architecture: one acceptor thread blocks in accept(); each accepted
// connection becomes a task on a ThreadPool of `num_workers` workers, so at
// most `num_workers` clients are served concurrently (further accepted
// connections queue until a worker frees up). Every connection owns a
// SessionHandler — and through it a Session pinned to an engine snapshot —
// so readers never block each other or the writer; writes serialize in the
// engine's commit pipeline.
//
// Connection tasks block in recv() for their client's next line. That is
// what bounds concurrency to the worker count: the pool's workers are the
// serving capacity, exactly the "N concurrent client sessions over the
// thread pool" contract. Stop() shuts down the listener and every client
// socket (unblocking the recv()s), then drains the pool.

#ifndef REL_SERVER_SERVER_H_
#define REL_SERVER_SERVER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "base/error.h"
#include "base/thread_pool.h"
#include "core/engine.h"

namespace rel {
namespace server {

struct ServerOptions {
  /// Listen address. The default serves loopback only; a server exposed
  /// beyond that needs transport security this layer does not provide.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start().
  int port = 0;
  /// Worker threads = maximum concurrently-served client sessions.
  int num_workers = 4;
  /// listen(2) backlog for connections waiting to be accepted.
  int backlog = 16;
};

class LineServer {
 public:
  /// The longest request line a client may send, newline excluded. A
  /// longer one gets `err proto: request line exceeds N bytes` and the
  /// connection is closed, so a client that never sends a newline cannot
  /// grow its buffer without bound.
  static constexpr size_t kMaxRequestLine = size_t{1} << 20;

  LineServer(Engine* engine, ServerOptions options = {});
  /// Stops the server if still running.
  ~LineServer();

  LineServer(const LineServer&) = delete;
  LineServer& operator=(const LineServer&) = delete;

  /// Binds, listens, and starts accepting. Non-blocking: serving happens on
  /// the acceptor thread + pool. Returns a non-ok status if the socket
  /// cannot be set up (port in use, sandboxed environment, ...).
  Status Start();

  /// Shuts down the listener and all client connections, waits for every
  /// in-flight request to finish, and joins the threads. Idempotent.
  void Stop();

  /// The bound port (valid after a successful Start()).
  int port() const { return port_; }

  /// True between a successful Start() and Stop().
  bool running() const { return running_; }

 private:
  void AcceptLoop();
  void ServeConnection(int fd);

  Engine* engine_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ThreadPool::TaskGroup> connections_;
  std::thread acceptor_;
  /// Open client sockets, so Stop() can unblock their readers.
  std::mutex clients_mu_;
  std::set<int> clients_;
};

}  // namespace server
}  // namespace rel

#endif  // REL_SERVER_SERVER_H_
