#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>

#include "server/protocol.h"

namespace rel {
namespace server {

namespace {

/// Writes all of `data` (+ newline) to `fd`; false on a broken connection.
/// MSG_NOSIGNAL turns a write-to-closed-peer into EPIPE instead of SIGPIPE.
bool WriteLine(int fd, const std::string& data) {
  std::string out = data + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

LineServer::LineServer(Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

LineServer::~LineServer() { Stop(); }

Status LineServer::Start() {
  if (running_) {
    return Status::Error(ErrorKind::kTransaction, "server already running");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status s = Status::IoError(std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    Status s = Status::IoError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  stopping_ = false;
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  connections_ = std::make_unique<ThreadPool::TaskGroup>(pool_.get());
  acceptor_ = std::thread([this] { AcceptLoop(); });
  running_ = true;
  return Status::Ok();
}

void LineServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener shut down (Stop) or failed
    }
    if (stopping_) {
      ::close(fd);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(clients_mu_);
      clients_.insert(fd);
    }
    connections_->Run([this, fd] { ServeConnection(fd); });
  }
}

void LineServer::ServeConnection(int fd) {
  SessionHandler handler(engine_);
  std::string buffer;  // the unfinished request line, if any
  char chunk[4096];
  while (!handler.closed() && !stopping_) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // client hung up (or Stop shut the socket down)
    // The buffered bytes hold no newline, so only the new ones are scanned.
    size_t scan = buffer.size();
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    size_t eol;
    while (!handler.closed() &&
           (eol = buffer.find('\n', scan)) != std::string::npos &&
           eol - start <= kMaxRequestLine) {
      std::string line = buffer.substr(start, eol - start);
      start = scan = eol + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (!WriteLine(fd, handler.Handle(line))) {
        start = buffer.size();
        break;
      }
    }
    buffer.erase(0, start);
    // What is left starts with one line: unfinished, or too long.
    if (!handler.closed() && buffer.size() > kMaxRequestLine) {
      WriteLine(fd, "err proto: request line exceeds " +
                        std::to_string(kMaxRequestLine) + " bytes");
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    clients_.erase(fd);
  }
  ::close(fd);
}

void LineServer::Stop() {
  if (!running_) return;
  stopping_ = true;
  // Unblock the acceptor's accept() with shutdown, and only close the fd
  // after the join: closing (or reassigning listen_fd_) while the acceptor
  // still reads it would race, and a concurrently-recycled fd number could
  // even make it accept on someone else's socket.
  ::shutdown(listen_fd_, SHUT_RDWR);
  acceptor_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    for (int fd : clients_) ::shutdown(fd, SHUT_RDWR);
  }
  // The Stop() caller is the pool's single outside helper: it drains any
  // connection tasks still queued (their recv()s fail instantly now).
  connections_->Wait();
  connections_.reset();
  pool_.reset();
  running_ = false;
}

}  // namespace server
}  // namespace rel
