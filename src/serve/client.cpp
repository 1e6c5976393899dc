#include "serve/client.hpp"

namespace wf::serve {

Client::Client(const std::string& host, std::uint16_t port, const ClientConfig& config)
    : host_(host), port_(port), config_(config) {
  ConnectOptions options;
  options.retry_ms = config_.connect_retry_ms;
  options.connect_timeout_ms = config_.connect_timeout_ms;
  socket_ = tcp_connect(host_, port_, options);
}

void Client::ensure_connected() {
  if (socket_.valid()) return;
  // Reconnects use a single bounded attempt — the long connect_retry_ms
  // window is for racing the daemon's startup bind, not for stalling every
  // RPC retry against a dead peer.
  ConnectOptions options;
  options.connect_timeout_ms = config_.connect_timeout_ms;
  socket_ = tcp_connect(host_, port_, options);
}

ParsedFrame Client::roundtrip(const std::string& frame_bytes,
                              const std::string& expected_kind) {
  ensure_connected();
  const Deadline deadline = Deadline::after_ms(config_.timeout_ms);
  std::optional<ParsedFrame> reply;
  try {
    send_frame(socket_, frame_bytes, deadline);
    reply = recv_frame(socket_, deadline);
  } catch (const io::IoError&) {
    // The stream is desynced (or dead): drop it so the next call — possibly
    // a bounded retry — starts from a fresh connection.
    socket_.close();
    throw;
  }
  if (!reply.has_value()) {
    socket_.close();
    throw io::IoError("server closed the connection mid-request");
  }
  if (reply->kind == kFrameError) {
    const ErrorReply error = read_error(*reply->reader);
    throw ServeError(error.retryable, error.message, error.klass);
  }
  if (reply->kind != expected_kind) {
    socket_.close();
    throw io::IoError("unexpected reply kind \"" + reply->kind + "\" (wanted \"" +
                      expected_kind + "\")");
  }
  return std::move(*reply);
}

ServerInfo Client::hello() {
  ParsedFrame reply = roundtrip(encode_frame(kFrameHello), kFrameInfo);
  ServerInfo info = read_info(*reply.reader);
  io::detail::require_consumed(*reply.stream, reply.kind);
  return info;
}

Rankings Client::query(const nn::Matrix& features, ReplyMeta* meta) {
  ParsedFrame reply = roundtrip(
      encode_frame(kFrameQuery, [&](io::Writer& w) { write_features(w, features); }),
      kFrameRankings);
  Rankings rankings = read_rankings(*reply.reader);
  // Consume the optional DGRD trailer even when the caller does not ask for
  // it: trailing bytes would otherwise fail require_consumed below.
  const ReplyMeta parsed = read_trailing_meta(reply);
  if (meta) *meta = parsed;
  io::detail::require_consumed(*reply.stream, reply.kind);
  return rankings;
}

core::SliceScan Client::scan(const nn::Matrix& features) {
  ParsedFrame reply = roundtrip(
      encode_frame(kFrameScan, [&](io::Writer& w) { write_features(w, features); }),
      kFrameSlice);
  core::SliceScan scan = read_slice_scan(*reply.reader);
  io::detail::require_consumed(*reply.stream, reply.kind);
  return scan;
}

Rankings Client::query_until_accepted(const nn::Matrix& features, ReplyMeta* meta) {
  Backoff backoff(config_.retry);
  while (true) {
    try {
      return query(features, meta);
    } catch (const ServeError& e) {
      if (!e.retryable() || !backoff.retry()) throw;
    } catch (const io::IoError&) {
      // Timeout or broken transport: roundtrip() already dropped the
      // connection; the next attempt reconnects.
      if (!backoff.retry()) throw;
    }
  }
}

obs::Snapshot Client::stats(std::vector<obs::SpanRecord>* spans) {
  ParsedFrame reply = roundtrip(encode_frame(kFrameStat), kFrameMetrics);
  obs::Snapshot snapshot = read_snapshot(*reply.reader);
  // Consume the optional SPNS trailer even when the caller does not ask for
  // it, as with query()'s DGRD trailer.
  std::vector<obs::SpanRecord> parsed = read_trailing_spans(reply);
  if (spans) *spans = std::move(parsed);
  io::detail::require_consumed(*reply.stream, reply.kind);
  return snapshot;
}

void Client::stop_server() { roundtrip(encode_frame(kFrameStop), kFrameBye); }

}  // namespace wf::serve
