// Server tests: the line protocol (transport-free, via SessionHandler) and
// the TCP LineServer with concurrent clients. Socket tests skip when the
// environment forbids binding (sandboxed CI runners).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "server/protocol.h"
#include "server/server.h"

namespace rel {
namespace server {
namespace {

TEST(Protocol, EscapeRoundTrip) {
  const std::string multi = "def a : 1\ndef b : 2\\n";
  EXPECT_EQ(UnescapeLine(EscapeLine(multi)), multi);
  EXPECT_EQ(EscapeLine(multi).find('\n'), std::string::npos);
}

TEST(Protocol, EvalAndPing) {
  Engine engine;
  SessionHandler handler(&engine);
  EXPECT_EQ(handler.Handle("ping"), "ok pong");
  EXPECT_EQ(handler.Handle("eval 1 + 2"), "ok {(3)}");
  EXPECT_FALSE(handler.closed());
}

TEST(Protocol, DefExecBaseFlow) {
  Engine engine;
  SessionHandler handler(&engine);
  EXPECT_EQ(handler.Handle("def def E {(1,2);(2,3)}").substr(0, 2), "ok");
  EXPECT_EQ(handler.Handle("eval count[TC[E]]"), "ok {(3)}");
  std::string exec = handler.Handle("exec def insert(:V, x) : TC[E](1, x)");
  EXPECT_EQ(exec.substr(0, 6), "ok +2 ");
  EXPECT_EQ(handler.Handle("base V"), "ok {(2); (3)}");
}

TEST(Protocol, MultiLinePayloadViaEscapes) {
  Engine engine;
  SessionHandler handler(&engine);
  EXPECT_EQ(
      handler.Handle("query def t(x) : x = 1\\ndef output : count[t]"),
      "ok {(1)}");
}

TEST(Protocol, ErrorsBecomeErrResponses) {
  Engine engine;
  SessionHandler handler(&engine);
  EXPECT_EQ(handler.Handle("nonsense").substr(0, 4), "err ");
  EXPECT_EQ(handler.Handle("eval 1 +").substr(0, 4), "err ");
  // Out-of-range numeric literals are parse errors, not internal ones.
  for (const char* line : {"query def output : 99999999999999999999",
                           "query def output : 1e999"}) {
    const std::string reply = handler.Handle(line);
    EXPECT_EQ(reply.substr(0, 16), "err parse error:") << reply;
    EXPECT_NE(reply.find("out of range"), std::string::npos) << reply;
  }
  // An int result outside int64 is a type error, not a wrapped value.
  EXPECT_EQ(handler.Handle("eval abs_value[-9223372036854775807 - 1]")
                .substr(0, 31),
            "err type error: integer overflo");
  // The handler survives errors; the session still works.
  EXPECT_EQ(handler.Handle("eval 2 * 2"), "ok {(4)}");
}

TEST(Protocol, QuitClosesHandler) {
  Engine engine;
  SessionHandler handler(&engine);
  EXPECT_EQ(handler.Handle("quit"), "ok bye");
  EXPECT_TRUE(handler.closed());
}

TEST(Protocol, HandlersAreSnapshotIsolated) {
  Engine engine;
  SessionHandler a(&engine), b(&engine);
  a.Handle("exec def insert(:R, x) : x = 1");
  EXPECT_EQ(b.Handle("base R"), "ok {}");  // b still pinned pre-commit
  EXPECT_EQ(b.Handle("refresh").substr(0, 2), "ok");
  EXPECT_EQ(b.Handle("base R"), "ok {(1)}");
}

// --- TCP -------------------------------------------------------------------

/// A minimal blocking line client for the tests.
class TestClient {
 public:
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  /// Sends one request line and reads one response line.
  std::string RoundTrip(const std::string& request) {
    if (!Send(request + "\n")) return "";
    return ReadLine();
  }

  /// Sends all of `data`; false on a broken connection.
  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one response line; "" once the server has closed.
  std::string ReadLine() {
    char c;
    while (buffer_.find('\n') == std::string::npos) {
      ssize_t n = ::recv(fd_, &c, 1, 0);
      if (n <= 0) return "";
      buffer_ += c;
    }
    size_t eol = buffer_.find('\n');
    std::string line = buffer_.substr(0, eol);
    buffer_.erase(0, eol + 1);
    return line;
  }

  /// True once the server has closed the connection with nothing unread.
  bool AtEof() {
    char c;
    return buffer_.empty() && ::recv(fd_, &c, 1, 0) == 0;
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Starts a server on an ephemeral port, or skips the test where sockets
/// are unavailable.
#define START_OR_SKIP(server)                                            \
  do {                                                                   \
    Status s = (server).Start();                                         \
    if (!s.ok()) GTEST_SKIP() << "no sockets here: " << s.ToString();    \
  } while (0)

TEST(LineServer, RoundTripOverTcp) {
  Engine engine;
  ServerOptions options;
  options.num_workers = 2;
  LineServer server(&engine, options);
  START_OR_SKIP(server);

  TestClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  EXPECT_EQ(client.RoundTrip("ping"), "ok pong");
  EXPECT_EQ(client.RoundTrip("eval 6 * 7"), "ok {(42)}");
  EXPECT_EQ(client.RoundTrip("exec def insert(:R, x) : x = 1").substr(0, 5),
            "ok +1");
  EXPECT_EQ(client.RoundTrip("base R"), "ok {(1)}");
  EXPECT_EQ(client.RoundTrip("quit"), "ok bye");
  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(LineServer, ConcurrentClientsGetIsolatedSessions) {
  Engine engine;
  engine.Insert("R", {Tuple({Value::Int(1)})});
  ServerOptions options;
  options.num_workers = 4;
  LineServer server(&engine, options);
  START_OR_SKIP(server);

  constexpr int kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      TestClient client;
      if (!client.Connect(server.port())) {
        ++failures;
        return;
      }
      // Every client pins its own snapshot, writes its own value, and must
      // read it back (read-your-writes through the pipeline).
      std::string v = std::to_string(100 + i);
      if (client.RoundTrip("exec def insert(:R, x) : x = " + v)
              .substr(0, 5) != "ok +1") {
        ++failures;
        return;
      }
      std::string base = client.RoundTrip("base R");
      if (base.find("(" + v + ")") == std::string::npos) ++failures;
      client.RoundTrip("quit");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures, 0);
  server.Stop();
  // All four commits landed.
  EXPECT_EQ(engine.Base("R").size(), 1u + kClients);
}

TEST(LineServer, OversizedRequestLineClosesOnlyThatConnection) {
  Engine engine;
  ServerOptions options;
  options.num_workers = 2;
  LineServer server(&engine, options);
  START_OR_SKIP(server);
  TestClient flooder;
  ASSERT_TRUE(flooder.Connect(server.port()));
  // One byte past the cap, and no newline.
  ASSERT_TRUE(
      flooder.Send(std::string(LineServer::kMaxRequestLine + 1, 'x')));
  EXPECT_EQ(flooder.ReadLine(),
            "err proto: request line exceeds " +
                std::to_string(LineServer::kMaxRequestLine) + " bytes");
  EXPECT_TRUE(flooder.AtEof());
  // The server still serves everyone else.
  TestClient other;
  ASSERT_TRUE(other.Connect(server.port()));
  EXPECT_EQ(other.RoundTrip("ping"), "ok pong");
  server.Stop();
}

TEST(LineServer, StopUnblocksIdleConnections) {
  Engine engine;
  LineServer server(&engine, {});
  START_OR_SKIP(server);
  TestClient idle;
  ASSERT_TRUE(idle.Connect(server.port()));
  EXPECT_EQ(idle.RoundTrip("ping"), "ok pong");
  // The client now sits idle (blocked server-side in recv); Stop must not
  // hang on it.
  server.Stop();
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace server
}  // namespace rel
