#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "serve/frame.hpp"
#include "serve/net.hpp"
#include "serve/retry.hpp"

namespace wf::serve {

// An ERRR reply surfaced as an exception. retryable() mirrors the frame's
// flag: true means transient (backpressure, timeout, backends down) —
// resend the same request after a pause; false means the request itself is
// bad and retrying cannot help. klass() says which failure it was.
class ServeError : public std::runtime_error {
 public:
  ServeError(bool retryable, const std::string& message,
             ErrorClass klass = ErrorClass::unknown)
      : std::runtime_error(message), retryable_(retryable), klass_(klass) {}
  bool retryable() const { return retryable_; }
  ErrorClass klass() const { return klass_; }

 private:
  bool retryable_;
  ErrorClass klass_;
};

// How a Client connects, waits and retries.
struct ClientConfig {
  // Keeps retrying a refused initial connection for up to this long, so a
  // client started back to back with the daemon does not race the bind.
  // Reconnects after a broken RPC always use a single bounded attempt.
  int connect_retry_ms = 0;
  // Bound on each individual connect attempt.
  int connect_timeout_ms = 10000;
  // Per-RPC deadline (send + recv of one roundtrip); <= 0 disables.
  int timeout_ms = 30000;
  // Schedule for query_until_accepted's bounded resend loop.
  RetryPolicy retry{};
};

// One blocking connection to a wf serve daemon: each call sends one request
// frame and decodes its single reply. Transport failures and malformed
// replies raise io::IoError (TimeoutError past the RPC deadline); ERRR
// replies raise ServeError. After a transport failure the connection is
// dropped; the next call reconnects transparently.
class Client {
 public:
  Client(const std::string& host, std::uint16_t port, const ClientConfig& config);

  ServerInfo hello();
  // `meta`, when non-null, receives the reply's degradation marker (only
  // ever degraded for coordinator replies in --partial mode).
  Rankings query(const nn::Matrix& features, ReplyMeta* meta = nullptr);
  core::SliceScan scan(const nn::Matrix& features);
  // As query(), but re-sends after retryable failures (backpressure ERRRs,
  // timeouts, broken connections) on the config's bounded backoff schedule;
  // rethrows the last failure once attempts are exhausted.
  Rankings query_until_accepted(const nn::Matrix& features, ReplyMeta* meta = nullptr);
  // Live metrics snapshot (STAT -> METR). `spans`, when non-null, receives
  // the server's recent span records (empty unless it runs with WF_OBS).
  obs::Snapshot stats(std::vector<obs::SpanRecord>* spans = nullptr);
  // Asks the daemon to shut down (it answers BYEE first).
  void stop_server();

 private:
  void ensure_connected();
  ParsedFrame roundtrip(const std::string& frame_bytes, const std::string& expected_kind);

  std::string host_;
  std::uint16_t port_;
  ClientConfig config_;
  Socket socket_;
};

}  // namespace wf::serve
