// The serve wire protocol: frame/section codecs round-trip bit-exactly,
// and malformed input of every kind — truncated payloads, oversized length
// prefixes, wrong magic, future format versions, trailing bytes — surfaces
// as a clean io::IoError, never a crash or a misparse. Plus the bounded
// RingQueue the daemon batches through: backpressure when full, FIFO wave
// draining, close semantics. PART frames keep the dense per-class table of
// wire v1 byte for byte while SliceScan holds sparse lists.
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/knn.hpp"
#include "core/sharded_reference_set.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/frame.hpp"
#include "serve/net.hpp"
#include "serve/queue.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

namespace {

using namespace wf;

// Frame bytes with the u64 length prefix stripped: the payload that
// parse_frame consumes.
std::string payload_of(const std::string& frame_bytes) {
  CHECK(frame_bytes.size() >= 8);
  return frame_bytes.substr(8);
}

template <typename Fn>
bool raises_io_error(Fn&& fn) {
  try {
    fn();
  } catch (const io::IoError&) {
    return true;
  }
  return false;
}

void test_roundtrips() {
  nn::Matrix features(3, 4);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c)
      features(r, c) = static_cast<float>(r * 10.0 - c * 0.25);
  const std::string query = serve::encode_frame(
      serve::kFrameQuery, [&](io::Writer& w) { serve::write_features(w, features); });
  serve::ParsedFrame frame = serve::parse_frame(payload_of(query));
  CHECK(frame.kind == serve::kFrameQuery);
  const nn::Matrix back = serve::read_features(*frame.reader);
  CHECK(back.rows() == 3 && back.cols() == 4);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 4; ++c) CHECK(back(r, c) == features(r, c));

  serve::Rankings rankings(2);
  rankings[0] = {{7, 3, 1.25}, {9, 0, 2.5}};
  rankings[1] = {};  // an empty ranking must survive too
  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameRankings, [&](io::Writer& w) { serve::write_rankings(w, rankings); })));
  CHECK(frame.kind == serve::kFrameRankings);
  const serve::Rankings rankings_back = serve::read_rankings(*frame.reader);
  CHECK(rankings_back.size() == 2);
  CHECK(rankings_back[0].size() == 2 && rankings_back[1].empty());
  CHECK(rankings_back[0][0].label == 7 && rankings_back[0][0].votes == 3 &&
        rankings_back[0][0].distance == 1.25);

  core::SliceScan scan;
  scan.n_class_ids = 3;
  scan.candidates = {{{0.5, 42}, {1.5, 7}}, {}};
  scan.nearest = {{{0, 0.5}, {2, 2.0}}, {}};
  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameSlice, [&](io::Writer& w) { serve::write_slice_scan(w, scan); })));
  const core::SliceScan scan_back = serve::read_slice_scan(*frame.reader);
  CHECK(scan_back.n_class_ids == 3);
  CHECK(scan_back.candidates == scan.candidates);
  CHECK(scan_back.nearest == scan.nearest);

  serve::ServerInfo info;
  info.attacker = "adaptive";
  info.n_references = 123;
  info.slice_index = 1;
  info.slice_count = 3;
  info.knn_k = 17;
  info.classes = {100, 200};
  info.id_to_label = {200, 100};
  frame = serve::parse_frame(payload_of(
      serve::encode_frame(serve::kFrameInfo, [&](io::Writer& w) { serve::write_info(w, info); })));
  const serve::ServerInfo info_back = serve::read_info(*frame.reader);
  CHECK(info_back.attacker == "adaptive" && info_back.n_references == 123);
  CHECK(info_back.slice_index == 1 && info_back.slice_count == 3);
  CHECK(info_back.knn_k == 17 && info_back.classes == info.classes &&
        info_back.id_to_label == info.id_to_label);

  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameError, [](io::Writer& w) { serve::write_error(w, {true, "busy"}); })));
  const serve::ErrorReply error = serve::read_error(*frame.reader);
  CHECK(error.retryable && error.message == "busy");

  // Body-less kinds parse to just their kind.
  frame = serve::parse_frame(payload_of(serve::encode_frame(serve::kFrameStop)));
  CHECK(frame.kind == serve::kFrameStop);
}

// The wire-v2 extensions (error class, slice coverage, DGRD degradation
// marker) ride as trailing bytes that v1 frames simply lack: both formats
// must parse, and absent extensions read as their defaults.
void test_wire_v2_extensions() {
  // Error class round-trips.
  serve::ParsedFrame frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameError, [](io::Writer& w) {
        serve::write_error(w, {true, "busy", serve::ErrorClass::backpressure});
      })));
  serve::ErrorReply error = serve::read_error(*frame.reader);
  CHECK(error.retryable && error.message == "busy" &&
        error.klass == serve::ErrorClass::backpressure);

  // A v1 peer's EMSG carries no class byte: parses as unknown.
  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameError, [](io::Writer& w) {
        io::write_section(w, "EMSG", [](io::Writer& s) {
          s.u8(1);
          s.str("old peer");
        });
      })));
  error = serve::read_error(*frame.reader);
  CHECK(error.retryable && error.message == "old peer" &&
        error.klass == serve::ErrorClass::unknown);

  // A class byte from the future degrades to unknown, not a parse error.
  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameError, [](io::Writer& w) {
        io::write_section(w, "EMSG", [](io::Writer& s) {
          s.u8(0);
          s.str("novel failure");
          s.u8(200);
        });
      })));
  error = serve::read_error(*frame.reader);
  CHECK(!error.retryable && error.klass == serve::ErrorClass::unknown);

  // Slice coverage round-trips; a v1 PART section (no trailing row count)
  // reads as 0 ("unknown").
  core::SliceScan scan;
  scan.n_class_ids = 1;
  scan.candidates = {{{0.5, 3}}};
  scan.nearest = {{{0, 0.5}}};
  scan.n_rows_scanned = 77;
  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameSlice, [&](io::Writer& w) { serve::write_slice_scan(w, scan); })));
  CHECK(serve::read_slice_scan(*frame.reader).n_rows_scanned == 77);
  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameSlice, [&](io::Writer& w) {
        io::write_section(w, "PART", [&](io::Writer& s) {
          s.u64(1);  // one query
          s.u64(1);  // one class id
          s.u64(1);  // one candidate for the one query
          s.f64(0.5);
          s.u64(3);
          s.f64_vec(std::vector<double>{0.5});
        });
      })));
  const core::SliceScan v1_scan = serve::read_slice_scan(*frame.reader);
  CHECK(v1_scan.candidates == scan.candidates && v1_scan.nearest == scan.nearest &&
        v1_scan.n_rows_scanned == 0);

  // The DGRD trailer: absent means not degraded (and the payload is still
  // fully consumed); present round-trips its coverage counts.
  serve::Rankings rankings(1);
  rankings[0] = {{7, 3, 1.25}};
  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameRankings, [&](io::Writer& w) { serve::write_rankings(w, rankings); })));
  CHECK(serve::read_rankings(*frame.reader).size() == 1);
  serve::ReplyMeta meta = serve::read_trailing_meta(frame);
  CHECK(!meta.degraded && meta.covered_references == 0 && meta.total_references == 0);
  io::detail::require_consumed(*frame.stream, frame.kind);

  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameRankings, [&](io::Writer& w) {
        serve::write_rankings(w, rankings);
        serve::write_reply_meta(w, {true, 10, 30});
      })));
  CHECK(serve::read_rankings(*frame.reader).size() == 1);
  meta = serve::read_trailing_meta(frame);
  CHECK(meta.degraded && meta.covered_references == 10 && meta.total_references == 30);
  io::detail::require_consumed(*frame.stream, frame.kind);
}

// The live-introspection frames: STAT (body-less request) and METR (a
// metrics snapshot plus an optional SPNS span trailer, same trailing-bytes
// discipline as DGRD). Every byte of the reply must also survive the
// truncation fuzz.
// PART keeps wire v1's dense per-class table: SliceScan's sparse nearest
// lists must encode to exactly the bytes an old peer writes (kFar, 1e300,
// for every class a query did not reach) and decode back bit for bit.
void test_part_dense_table() {
  core::SliceScan scan;
  scan.n_class_ids = 4;
  scan.n_rows_scanned = 9;
  scan.candidates = {{{0.25, 17}}, {}, {{1.5, 40}, {2.5, 66}}};
  scan.nearest = {{{1, 0.25}, {3, 0.75}}, {}, {{0, 1.5}, {2, 2.5}}};
  const std::string golden = serve::encode_frame(serve::kFrameSlice, [](io::Writer& w) {
    io::write_section(w, "PART", [](io::Writer& s) {
      s.u64(3);  // queries
      s.u64(4);  // class ids
      s.u64(1);
      s.f64(0.25);
      s.u64(17);
      s.u64(0);
      s.u64(2);
      s.f64(1.5);
      s.u64(40);
      s.f64(2.5);
      s.u64(66);
      s.f64_vec(std::vector<double>{1e300, 0.25, 1e300, 0.75,  //
                                    1e300, 1e300, 1e300, 1e300,  //
                                    1.5, 1e300, 2.5, 1e300});
      s.u64(9);  // rows scanned
    });
  });
  CHECK(serve::encode_frame(serve::kFrameSlice, [&](io::Writer& w) {
          serve::write_slice_scan(w, scan);
        }) == golden);
  serve::ParsedFrame frame = serve::parse_frame(payload_of(golden));
  CHECK(test::same_bits(serve::read_slice_scan(*frame.reader), scan));

  // A real slice scan: several queries, each missing the classes whose
  // rows all sit in the other slice's shard.
  util::Rng rng(404);
  core::ShardedReferenceSet store(3, 2);
  for (int row = 0; row < 40; ++row) {
    const std::vector<float> point{static_cast<float>(rng.normal()),
                                   static_cast<float>(rng.normal()),
                                   static_cast<float>(rng.normal())};
    store.add(point, row < 20 ? row : row % 5);
  }
  nn::Matrix queries(5, 3);
  for (std::size_t q = 0; q < queries.rows(); ++q)
    for (std::size_t c = 0; c < 3; ++c) queries(q, c) = static_cast<float>(rng.normal());
  const core::SliceScan real = core::KnnClassifier(4).scan_slice(store, queries, 1, 2);
  CHECK(real.candidates.size() == 5);
  for (const std::vector<core::ClassNearest>& nearest : real.nearest)
    CHECK(!nearest.empty() && nearest.size() < real.n_class_ids);
  frame = serve::parse_frame(payload_of(serve::encode_frame(
      serve::kFrameSlice, [&](io::Writer& w) { serve::write_slice_scan(w, real); })));
  CHECK(test::same_bits(serve::read_slice_scan(*frame.reader), real));
  io::detail::require_consumed(*frame.stream, frame.kind);
}

void test_stat_metrics_frames() {
  // STAT parses to just its kind, like STOP/HELO.
  serve::ParsedFrame frame = serve::parse_frame(payload_of(serve::encode_frame(serve::kFrameStat)));
  CHECK(frame.kind == serve::kFrameStat);

  obs::Registry registry;
  registry.counter("serve.requests_total").inc(42);
  registry.gauge("serve.queue_depth").set(-3);
  obs::Histogram& hist = registry.histogram("serve.handle_ms.QRYB");
  hist.record(0.5);
  hist.record(2.25);
  hist.record(120.0);
  const obs::Snapshot snapshot = registry.snapshot();

  std::vector<obs::SpanRecord> spans;
  spans.push_back({"embed", 1, 7, 3, 1000, 250});
  spans.push_back({"rank", 0, 7, 4, 1300, 900});

  // Full reply: SNAP + SPNS, every field round-trips.
  const std::string with_spans = payload_of(serve::encode_frame(
      serve::kFrameMetrics, [&](io::Writer& w) {
        serve::write_snapshot(w, snapshot);
        serve::write_spans(w, spans);
      }));
  frame = serve::parse_frame(with_spans);
  CHECK(frame.kind == serve::kFrameMetrics);
  const obs::Snapshot snap_back = serve::read_snapshot(*frame.reader);
  CHECK(snap_back.entries.size() == snapshot.entries.size());
  for (std::size_t i = 0; i < snapshot.entries.size(); ++i) {
    const obs::SnapshotEntry& a = snapshot.entries[i];
    const obs::SnapshotEntry& b = snap_back.entries[i];
    CHECK(a.name == b.name && a.kind == b.kind && a.count == b.count);
    CHECK(a.value == b.value && a.sum == b.sum && a.min == b.min && a.max == b.max);
    CHECK(a.p50 == b.p50 && a.p90 == b.p90 && a.p99 == b.p99);
    CHECK(a.bounds == b.bounds && a.buckets == b.buckets);
  }
  const std::vector<obs::SpanRecord> spans_back = serve::read_trailing_spans(frame);
  CHECK(spans_back.size() == 2);
  CHECK(spans_back[0].name == "embed" && spans_back[0].depth == 1 &&
        spans_back[0].thread == 7 && spans_back[0].sequence == 3 &&
        spans_back[0].start_us == 1000 && spans_back[0].duration_us == 250);
  CHECK(spans_back[1].name == "rank" && spans_back[1].duration_us == 900);
  io::detail::require_consumed(*frame.stream, frame.kind);

  // No SPNS trailer (the byte-stable no-spans encoding): reads as empty,
  // payload fully consumed.
  const std::string without_spans = payload_of(serve::encode_frame(
      serve::kFrameMetrics, [&](io::Writer& w) { serve::write_snapshot(w, snapshot); }));
  frame = serve::parse_frame(without_spans);
  CHECK(serve::read_snapshot(*frame.reader).entries.size() == snapshot.entries.size());
  CHECK(serve::read_trailing_spans(frame).empty());
  io::detail::require_consumed(*frame.stream, frame.kind);

  // Truncation at every byte boundary of the full reply: a clean IoError —
  // except the one prefix that IS the valid no-trailer encoding (the
  // tolerated old-peer frame without SPNS), which must parse clean.
  for (std::size_t cut = 0; cut < with_spans.size(); ++cut) {
    const std::string prefix = with_spans.substr(0, cut);
    bool clean = false;
    try {
      serve::ParsedFrame truncated = serve::parse_frame(prefix);
      serve::read_snapshot(*truncated.reader);
      serve::read_trailing_spans(truncated);
      io::detail::require_consumed(*truncated.stream, truncated.kind);
      clean = true;
    } catch (const io::IoError&) {
    }
    CHECK(clean == (prefix == without_spans));
  }

  // A snapshot entry whose kind byte is from the future is corruption.
  const std::string bad_kind = payload_of(serve::encode_frame(
      serve::kFrameMetrics, [&](io::Writer& w) {
        io::write_section(w, "SNAP", [](io::Writer& s) {
          s.u64(1);
          s.str("x");
          s.u8(99);  // not counter/gauge/histogram
          s.u64(0);
          for (int i = 0; i < 7; ++i) s.f64(0.0);
          s.f64_vec({});
          s.u64_vec({});
        });
      }));
  CHECK(raises_io_error([&] {
    serve::ParsedFrame bad = serve::parse_frame(bad_kind);
    serve::read_snapshot(*bad.reader);
  }));
}

void test_malformed_payloads() {
  nn::Matrix features(2, 2);
  const std::string good = payload_of(serve::encode_frame(
      serve::kFrameQuery, [&](io::Writer& w) { serve::write_features(w, features); }));

  // Wrong magic.
  std::string bad = good;
  bad[0] = 'X';
  CHECK(raises_io_error([&] { serve::parse_frame(bad); }));

  // Future format version (u32 after the 4-byte magic).
  bad = good;
  bad[4] = static_cast<char>(0xEE);
  bad[5] = static_cast<char>(0xFF);
  CHECK(raises_io_error([&] { serve::parse_frame(bad); }));

  // Truncation at every byte boundary: either the header or the section
  // parse must throw — never crash, never succeed.
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    const std::string prefix = good.substr(0, cut);
    CHECK(raises_io_error([&] {
      serve::ParsedFrame frame = serve::parse_frame(prefix);
      serve::read_features(*frame.reader);
    }));
  }

  // Trailing bytes after the body section are corruption, not padding.
  bad = good + std::string(3, '\0');
  {
    serve::ParsedFrame frame = serve::parse_frame(bad);
    serve::read_features(*frame.reader);
    CHECK(raises_io_error(
        [&] { io::detail::require_consumed(*frame.stream, frame.kind); }));
  }

  // A slice scan whose best-distance table disagrees with its own counts,
  // built by hand: the writer derives the table's shape and cannot lie.
  const std::string lying = payload_of(serve::encode_frame(
      serve::kFrameSlice, [](io::Writer& w) {
        io::write_section(w, "PART", [](io::Writer& s) {
          s.u64(2);  // queries
          s.u64(2);  // class ids
          s.u64(0);  // no candidates for either query
          s.u64(0);
          s.f64_vec(std::vector<double>{1.0, 2.0, 3.0});  // should be 4 entries
        });
      }));
  CHECK(raises_io_error([&] {
    serve::ParsedFrame frame = serve::parse_frame(lying);
    serve::read_slice_scan(*frame.reader);
  }));
}

// The socket layer: oversized length prefixes and mid-frame closes raise
// IoError on the receiver; a close between frames is a clean nullopt.
void test_socket_framing() {
  serve::Listener listener("127.0.0.1", 0);

  const auto with_connection = [&](auto&& sender, auto&& receiver) {
    std::thread client([&] {
      serve::Socket sock = serve::tcp_connect("127.0.0.1", listener.port(), 2000);
      sender(sock);
    });
    serve::Socket accepted = listener.accept();
    CHECK(accepted.valid());
    receiver(accepted);
    client.join();
  };

  // Oversized length prefix: rejected before any allocation.
  with_connection(
      [](serve::Socket& sock) {
        const std::uint64_t huge = serve::kMaxFrameBytes + 1;
        std::uint8_t prefix[8];
        for (int i = 0; i < 8; ++i) prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
        sock.send_all(prefix, 8);
      },
      [](serve::Socket& sock) {
        CHECK(raises_io_error([&] { serve::recv_frame(sock); }));
      });

  // Truncated frame: the peer dies mid-payload.
  with_connection(
      [](serve::Socket& sock) {
        const std::string frame = serve::encode_frame(serve::kFrameHello);
        sock.send_all(frame.data(), frame.size() - 2);
        sock.close();
      },
      [](serve::Socket& sock) {
        CHECK(raises_io_error([&] { serve::recv_frame(sock); }));
      });

  // Clean close at a frame boundary: nullopt, not an error.
  with_connection(
      [](serve::Socket& sock) {
        const std::string frame = serve::encode_frame(serve::kFrameHello);
        sock.send_all(frame.data(), frame.size());
        sock.close();
      },
      [](serve::Socket& sock) {
        const auto first = serve::recv_frame(sock);
        CHECK(first.has_value() && first->kind == serve::kFrameHello);
        const auto second = serve::recv_frame(sock);
        CHECK(!second.has_value());
      });
}

void test_ring_queue() {
  serve::RingQueue<int> queue(3);
  using Outcome = serve::RingQueue<int>::PushOutcome;
  constexpr Outcome accepted = Outcome::accepted;
  CHECK(queue.capacity() == 3);
  CHECK(queue.offer(1) == accepted && queue.offer(2) == accepted && queue.offer(3) == accepted);
  CHECK(queue.offer(4) == Outcome::full);  // full: backpressure, not blocking
  CHECK(queue.size() == 3);

  // Waves drain in arrival order, bounded by max_items.
  std::vector<int> wave = queue.pop_wave(2);
  CHECK(wave.size() == 2 && wave[0] == 1 && wave[1] == 2);
  CHECK(queue.offer(5) == accepted);  // slot freed
  wave = queue.pop_wave(0);  // 0 = everything queued
  CHECK(wave.size() == 2 && wave[0] == 3 && wave[1] == 5);

  // close(): future pushes fail, queued items stay poppable, and the
  // consumer sees an empty wave once drained.
  CHECK(queue.offer(6) == accepted);
  queue.close();
  CHECK(queue.offer(7) == Outcome::closed);
  wave = queue.pop_wave(0);
  CHECK(wave.size() == 1 && wave[0] == 6);
  CHECK(queue.pop_wave(0).empty());

  // A consumer blocked on an empty queue wakes on push.
  serve::RingQueue<int> live(4);
  std::thread consumer([&] {
    const std::vector<int> got = live.pop_wave(0);
    CHECK(!got.empty() && got[0] == 42);
  });
  CHECK(live.offer(42) == accepted);
  consumer.join();
}

}  // namespace

int main() {
  test_roundtrips();
  test_wire_v2_extensions();
  test_part_dense_table();
  test_stat_metrics_frames();
  test_malformed_payloads();
  test_socket_framing();
  test_ring_queue();
  return TEST_MAIN_RESULT();
}
