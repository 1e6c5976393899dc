#include "serve/server.hpp"

#include <chrono>
#include <exception>
#include <functional>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/adaptive.hpp"
#include "data/dataset.hpp"
#include "serve/client.hpp"
#include "util/check.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"

namespace wf::serve {

namespace {

// The wire carries bare feature matrices; attackers consume labeled
// datasets. Labels are irrelevant for fingerprinting, so zero-fill them.
data::Dataset matrix_to_dataset(const nn::Matrix& m) {
  data::Dataset dataset(m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    const auto row = m.row_span(i);
    dataset.add({std::vector<float>(row.begin(), row.end()), 0});
  }
  return dataset;
}

}  // namespace

LocalHandler::LocalHandler(std::unique_ptr<core::Attacker> attacker, std::size_t slice_index,
                           std::size_t slice_count)
    : attacker_(std::move(attacker)),
      slice_index_(slice_index),
      slice_count_(slice_count == 0 ? 1 : slice_count) {
  if (!attacker_) throw std::invalid_argument("LocalHandler: null attacker");
  if (slice_index_ >= slice_count_)
    throw std::invalid_argument("LocalHandler: slice index out of range");
  adaptive_ = dynamic_cast<const core::AdaptiveFingerprinter*>(attacker_.get());
  if (slice_count_ > 1 && adaptive_ == nullptr)
    throw std::invalid_argument("LocalHandler: attacker \"" + attacker_->name() +
                                "\" cannot serve a shard slice (no sharded reference set)");
}

ServerInfo LocalHandler::info() const {
  ServerInfo info;
  info.attacker = attacker_->name();
  info.slice_index = slice_index_;
  info.slice_count = slice_count_;
  info.classes = attacker_->target_classes();
  if (adaptive_ != nullptr) {
    // Through store(): an attached index (wf serve --index) is what queries
    // actually scan, so it is what HELO advertises.
    const core::ReferenceStore& refs = adaptive_->store();
    info.n_references = refs.size();
    info.knn_k = adaptive_->classifier().k();
    info.shard_count = refs.shard_count();
    info.id_to_label.reserve(refs.n_class_ids());
    for (std::size_t id = 0; id < refs.n_class_ids(); ++id)
      info.id_to_label.push_back(refs.label_of_id(id));
  }
  return info;
}

RankReply LocalHandler::rank(const nn::Matrix& queries) {
  RankReply reply;
  reply.rankings = attacker_->fingerprint_batch(matrix_to_dataset(queries));
  const std::uint64_t refs = adaptive_ != nullptr ? adaptive_->store().size() : 0;
  reply.meta = {false, refs, refs};
  return reply;
}

core::SliceScan LocalHandler::scan(const nn::Matrix& queries) {
  if (adaptive_ == nullptr)
    throw std::runtime_error("attacker \"" + attacker_->name() +
                             "\" does not support slice scans");
  return adaptive_->scan_slice(matrix_to_dataset(queries), slice_index_, slice_count_);
}

Server::Server(std::shared_ptr<Handler> handler, ServerConfig config)
    : handler_(std::move(handler)), config_(config), queue_(config.queue_capacity) {
  if (!handler_) throw std::invalid_argument("Server: null handler");
  if (config_.max_batch == 0) config_.max_batch = 1;
  obs::Registry& reg = obs::Registry::global();
  requests_total_ = &reg.counter("serve.requests_total");
  queries_total_ = &reg.counter("serve.queries_total");
  batches_total_ = &reg.counter("serve.batches_total");
  rejected_total_ = &reg.counter("serve.rejected_total");
  timeouts_total_ = &reg.counter("serve.timeouts_total");
  errors_total_ = &reg.counter("serve.errors_total");
  for (std::uint8_t klass = 0; klass < 6; ++klass)
    errors_by_class_[klass] = &reg.counter(
        std::string("serve.errors.") + error_class_name(static_cast<ErrorClass>(klass)));
  queue_depth_ = &reg.gauge("serve.queue_depth");
  wave_batch_ = &reg.histogram("serve.wave_batch");
  handle_helo_ = &reg.histogram("serve.handle_ms.helo");
  handle_qryb_ = &reg.histogram("serve.handle_ms.qryb");
  handle_scan_ = &reg.histogram("serve.handle_ms.scan");
  handle_stat_ = &reg.histogram("serve.handle_ms.stat");
}

std::string Server::error_frame(bool retryable, const std::string& message, ErrorClass klass) {
  errors_total_->inc();
  errors_by_class_[static_cast<std::uint8_t>(klass)]->inc();
  return encode_frame(kFrameError,
                      [&](io::Writer& w) { write_error(w, {retryable, message, klass}); });
}

obs::Histogram* Server::handle_histogram(const std::string& kind) const {
  if (kind == kFrameQuery) return handle_qryb_;
  if (kind == kFrameScan) return handle_scan_;
  if (kind == kFrameHello) return handle_helo_;
  if (kind == kFrameStat) return handle_stat_;
  return nullptr;
}

Server::~Server() { stop(); }

void Server::start() {
  listener_ = std::make_unique<Listener>(config_.host, config_.port);
  accept_thread_ = std::thread(&Server::accept_loop, this);
  worker_thread_ = std::thread(&Server::worker_loop, this);
}

std::uint16_t Server::port() const { return listener_ ? listener_->port() : 0; }

void Server::accept_loop() {
  std::optional<Backoff> backoff;  // engaged while accepts keep failing
  while (true) {
    Socket socket;
    try {
      socket = listener_->accept();
    } catch (const io::IoError& e) {
      // A failed accept on an open listener (out of descriptors, say) is
      // transient: connections that close free what it needs. Retry on a
      // backoff, waiting on the stop condition so shutdown never waits it out.
      if (!backoff) {
        backoff.emplace(RetryPolicy{});
        util::log_warn() << "wf serve: " << e.what() << "; retrying";
      }
      const auto delay = std::chrono::milliseconds(backoff->next_delay_ms());
      std::unique_lock<std::mutex> lock(stop_mutex_);
      if (stop_requested_cv_.wait_for(lock, delay, [&] { return stop_requested_ || stopped_; }))
        return;
      continue;
    }
    if (!socket.valid()) return;  // listener closed: shutting down
    backoff.reset();
    std::list<Connection> finished;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        const auto next = std::next(it);
        if (it->done) finished.splice(finished.end(), connections_, it);
        it = next;
      }
      Connection& connection = connections_.emplace_back();
      connection.socket = std::move(socket);
      connection.thread = std::thread(&Server::run_connection, this, std::ref(connection));
    }
    for (Connection& connection : finished) connection.thread.join();
  }
}

void Server::run_connection(Connection& connection) {
  serve_connection(connection.socket);
  // Under the lock, so stop() never half-closes a descriptor number that a
  // new connection has already reused.
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  connection.socket.close();
  connection.done = true;
}

void Server::serve_connection(Socket& socket) {
  while (true) {
    // Phase 1: wait for a frame to begin, bounded by the idle timeout. An
    // idle breach closes the connection quietly — sending an unsolicited
    // ERRR would desync the strictly request/reply stream.
    std::optional<std::uint64_t> length;
    try {
      length = recv_frame_length(socket, Deadline::after_ms(config_.idle_timeout_ms));
    } catch (const TimeoutError&) {
      return;  // idle for too long: hang up between frames
    } catch (const io::IoError& e) {
      // Unframed garbage (oversized length, mid-prefix EOF): nothing more
      // can be parsed, so report (best effort) and hang up.
      try {
        send_frame(socket, error_frame(false, e.what(), ErrorClass::protocol));
      } catch (const io::IoError&) {
        // Best effort: the stream is already broken; the hangup below is
        // the real signal.
      }
      return;
    }
    if (!length.has_value()) return;  // clean close between frames

    // Phase 2: a frame has begun — the request deadline now bounds
    // receiving its payload, computing and sending the reply. A breach is a
    // classified, retryable timeout (the stream may be desynced, so the
    // connection closes after the ERRR).
    const Deadline deadline = Deadline::after_ms(config_.request_timeout_ms);
    std::optional<ParsedFrame> frame;
    try {
      frame = recv_frame_payload(socket, *length, deadline);
    } catch (const TimeoutError& e) {
      timeouts_total_->inc();
      try {
        send_frame(socket, error_frame(true, e.what(), ErrorClass::timeout));
      } catch (const io::IoError&) {
        // Best effort: the peer may be gone; it retries off its own timeout.
      }
      return;
    } catch (const io::IoError& e) {
      try {
        send_frame(socket, error_frame(false, e.what(), ErrorClass::protocol));
      } catch (const io::IoError&) {
        // Best effort: cannot report a broken stream over itself.
      }
      return;
    }

    std::string reply;
    bool stop_after_reply = false;
    bool hangup_after_reply = false;
    util::Stopwatch handle_watch;
    try {
      if (frame->kind == kFrameHello) {
        const ServerInfo info = handler_->info();
        reply = encode_frame(kFrameInfo, [&](io::Writer& w) { write_info(w, info); });
      } else if (frame->kind == kFrameStat) {
        // Answered inline: introspection must work even when the queue is
        // full — that is exactly when an operator asks for it.
        const obs::Snapshot snapshot = obs::Registry::global().snapshot();
        const std::vector<obs::SpanRecord> spans = obs::recent_spans();
        reply = encode_frame(kFrameMetrics, [&](io::Writer& w) {
          write_snapshot(w, snapshot);
          // Trailing SPNS rides only when tracing recorded something, so
          // span-free snapshots parse under the pre-tracing wire too.
          if (!spans.empty()) write_spans(w, spans);
        });
      } else if (frame->kind == kFrameQuery || frame->kind == kFrameScan) {
        Request request;
        request.queries = read_features(*frame->reader);
        io::detail::require_consumed(*frame->stream, frame->kind);
        request.scan = frame->kind == kFrameScan;
        std::future<std::string> result = request.reply.get_future();
        switch (queue_.offer(std::move(request))) {
          case RingQueue<Request>::PushOutcome::accepted: {
            requests_total_->inc();
            queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
            // The request deadline also covers the queue wait + model call.
            // On a breach the late reply is abandoned (the worker fulfills
            // the promise into a dropped future) and the client gets a
            // retryable timeout instead of a wedged connection.
            if (deadline.finite() &&
                result.wait_for(std::chrono::milliseconds(deadline.poll_timeout_ms())) !=
                    std::future_status::ready) {
              timeouts_total_->inc();
              reply = error_frame(true, "request timed out in the server queue",
                                  ErrorClass::timeout);
            } else {
              reply = result.get();
            }
            break;
          }
          case RingQueue<Request>::PushOutcome::full: {
            rejected_total_->inc();
            reply = error_frame(true, "server at capacity; retry", ErrorClass::backpressure);
            break;
          }
          case RingQueue<Request>::PushOutcome::closed: {
            // Mid-shutdown requests get an explicit retryable ERRR instead
            // of a dropped connection; the stream then closes.
            reply = error_frame(true, "server is shutting down; retry elsewhere",
                                ErrorClass::shutdown);
            hangup_after_reply = true;
            break;
          }
        }
      } else if (frame->kind == kFrameStop) {
        reply = encode_frame(kFrameBye);
        stop_after_reply = true;
      } else {
        reply = error_frame(false, "unsupported request kind \"" + frame->kind + "\"",
                            ErrorClass::protocol);
      }
    } catch (const io::IoError& e) {
      reply = error_frame(false, e.what(), ErrorClass::protocol);
    } catch (const std::exception& e) {
      reply = error_frame(false, e.what());
    }

    try {
      send_frame(socket, reply, deadline);
    } catch (const io::IoError&) {
      return;  // peer went away (or stopped draining) mid-reply
    }
    if (obs::Histogram* handle_ms = handle_histogram(frame->kind); handle_ms != nullptr)
      handle_ms->record(handle_watch.millis());
    if (stop_after_reply) {
      request_stop();
      return;
    }
    if (hangup_after_reply) return;
  }
}

void Server::worker_loop() {
  while (true) {
    // Drain everything queued in one wave — requests that arrived while the
    // previous batch was in flight coalesce here; process_wave re-chunks by
    // max_batch queries.
    std::vector<Request> wave = queue_.pop_wave(0);
    queue_depth_->set(static_cast<std::int64_t>(queue_.size()));
    if (wave.empty()) return;  // closed and drained
    wave_batch_->record(static_cast<double>(wave.size()));
    process_wave(std::move(wave));
  }
}

void Server::process_wave(std::vector<Request> wave) {
  std::size_t begin = 0;
  while (begin < wave.size()) {
    // One model call per chunk: contiguous requests of the same kind and
    // feature width, up to max_batch total query rows (a single oversized
    // request still goes through alone — the model call is the cap's unit).
    std::size_t end = begin + 1;
    std::size_t rows = wave[begin].queries.rows();
    while (end < wave.size() && wave[end].scan == wave[begin].scan &&
           wave[end].queries.cols() == wave[begin].queries.cols() &&
           rows + wave[end].queries.rows() <= config_.max_batch) {
      rows += wave[end].queries.rows();
      ++end;
    }

    nn::Matrix batch(rows, wave[begin].queries.cols());
    std::size_t row = 0;
    for (std::size_t i = begin; i < end; ++i)
      for (std::size_t r = 0; r < wave[i].queries.rows(); ++r)
        batch.set_row(row++, wave[i].queries.row_span(r));
    WF_CHECK(row == rows, "process_wave: coalesced batch lost rows");

    // Count the chunk BEFORE fulfilling any promise: a client that just
    // received its reply may immediately ask for STAT, and the snapshot
    // must already cover the queries that reply answered.
    bool counted = false;
    const auto count_chunk = [&] {
      if (counted) return;
      counted = true;
      batches_total_->inc();
      queries_total_->inc(rows);
    };

    // Requests whose promise is already fulfilled; the error paths below
    // must skip them — a second set_value would throw future_error out of
    // the worker thread and take the whole daemon down.
    std::size_t delivered = begin;
    try {
      if (wave[begin].scan) {
        const core::SliceScan scan = handler_->scan(batch);
        WF_CHECK(scan.candidates.size() == rows && scan.nearest.size() == rows,
                 "process_wave: handler scanned a different query count than sent");
        count_chunk();
        std::size_t offset = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const auto lo = static_cast<std::ptrdiff_t>(offset);
          const auto hi = static_cast<std::ptrdiff_t>(offset + wave[i].queries.rows());
          core::SliceScan part;
          part.n_class_ids = scan.n_class_ids;
          part.n_rows_scanned = scan.n_rows_scanned;
          part.candidates.assign(scan.candidates.begin() + lo, scan.candidates.begin() + hi);
          part.nearest.assign(scan.nearest.begin() + lo, scan.nearest.begin() + hi);
          offset += wave[i].queries.rows();
          wave[i].reply.set_value(
              encode_frame(kFrameSlice, [&](io::Writer& w) { write_slice_scan(w, part); }));
          ++delivered;
        }
      } else {
        const RankReply ranked = handler_->rank(batch);
        WF_CHECK(ranked.rankings.size() == rows,
                 "process_wave: handler ranked a different query count than sent");
        count_chunk();
        std::size_t offset = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const Rankings part(
              ranked.rankings.begin() + static_cast<std::ptrdiff_t>(offset),
              ranked.rankings.begin() +
                  static_cast<std::ptrdiff_t>(offset + wave[i].queries.rows()));
          offset += wave[i].queries.rows();
          // The DGRD trailer rides only on degraded replies, keeping
          // full-coverage frames byte-identical to the v1 wire.
          wave[i].reply.set_value(encode_frame(kFrameRankings, [&](io::Writer& w) {
            write_rankings(w, part);
            if (ranked.meta.degraded) write_reply_meta(w, ranked.meta);
          }));
          ++delivered;
        }
      }
    } catch (const ServeError& e) {
      // A coordinator handler's classified failure (all backends down, …):
      // forward class and retryability to every still-unanswered request of
      // the chunk.
      count_chunk();
      const std::string error = error_frame(e.retryable(), e.what(), e.klass());
      for (std::size_t i = delivered; i < end; ++i) wave[i].reply.set_value(error);
    } catch (const std::exception& e) {
      count_chunk();
      const std::string error = error_frame(false, e.what());
      for (std::size_t i = delivered; i < end; ++i) wave[i].reply.set_value(error);
    }
    begin = end;
  }
}

void Server::request_stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_requested_ = true;
  }
  stop_requested_cv_.notify_all();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  stop_requested_cv_.wait(lock, [&] { return stop_requested_ || stopped_; });
}

void Server::stop() {
  {
    const std::lock_guard<std::mutex> lock(stop_mutex_);
    if (stopped_) return;
    stopped_ = true;
    stop_requested_ = true;
  }
  stop_requested_cv_.notify_all();

  // Graceful drain, in dependency order:
  //   1. Stop accepting new connections.
  //   2. Close the queue — requests arriving from here on are answered
  //      ERRR(retryable, shutdown) instead of being dropped — and let the
  //      worker finish every request already accepted (each promise is
  //      fulfilled before the worker exits).
  //   3. Only then half-close the connections: shutdown_read() wakes
  //      threads blocked waiting for the next request while leaving the
  //      write side intact, so every in-flight reply still reaches its
  //      client before the connection threads exit. Each thread then
  //      closes its socket fully, so peers observe EOF right away instead
  //      of a half-open socket.
  if (listener_) listener_->close();  // wakes the blocked accept()
  if (accept_thread_.joinable()) accept_thread_.join();

  queue_.close();
  if (worker_thread_.joinable()) worker_thread_.join();

  std::list<Connection> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    for (Connection& connection : connections_) connection.socket.shutdown_read();
    connections.swap(connections_);
  }
  for (Connection& connection : connections)
    if (connection.thread.joinable()) connection.thread.join();
}

}  // namespace wf::serve
