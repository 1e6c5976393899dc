#include "serve/frame.hpp"

#include "util/check.hpp"

namespace wf::serve {

namespace {

// Bounds on deserialized counts beyond what the frame cap already implies:
// a corrupt count must raise IoError before any allocation.
constexpr std::uint64_t kMaxQueries = std::uint64_t{1} << 24;
constexpr std::uint64_t kMaxEntries = std::uint64_t{1} << 24;

std::uint64_t checked(std::uint64_t n, std::uint64_t max, const char* what) {
  if (n > max) throw io::IoError(std::string("corrupt count: ") + what);
  return n;
}

// True when the section payload reader has unread bytes — how tolerant
// readers detect the presence of a trailing wire-v2 extension field.
bool has_more(io::Reader& r) {
  return r.stream().peek() != std::istream::traits_type::eof();
}

}  // namespace

const char* error_class_name(ErrorClass klass) {
  switch (klass) {
    case ErrorClass::protocol: return "protocol";
    case ErrorClass::backpressure: return "backpressure";
    case ErrorClass::timeout: return "timeout";
    case ErrorClass::unavailable: return "unavailable";
    case ErrorClass::shutdown: return "shutdown";
    case ErrorClass::unknown: break;
  }
  return "unknown";
}

std::string encode_frame(const std::string& kind,
                         const std::function<void(io::Writer&)>& body) {
  std::ostringstream payload_buffer;
  io::Writer payload(payload_buffer);
  io::write_header(payload, kind);
  if (body) body(payload);
  const std::string bytes = std::move(payload_buffer).str();
  if (bytes.size() > kMaxFrameBytes) throw io::IoError("frame exceeds the 1 GiB cap");
  std::ostringstream frame_buffer;
  io::Writer frame(frame_buffer);
  frame.u64(bytes.size());
  frame.stream().write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!frame.stream()) throw io::IoError("write failed");
  return std::move(frame_buffer).str();
}

ParsedFrame parse_frame(std::string payload) {
  ParsedFrame frame;
  frame.stream = std::make_unique<std::istringstream>(std::move(payload));
  frame.reader = std::make_unique<io::Reader>(*frame.stream);
  frame.kind = io::read_header(*frame.reader);
  return frame;
}

void send_frame(Socket& socket, const std::string& frame_bytes, const Deadline& deadline) {
  socket.send_all(frame_bytes.data(), frame_bytes.size(), deadline);
}

std::optional<std::uint64_t> recv_frame_length(Socket& socket, const Deadline& deadline) {
  std::uint8_t prefix[8];
  if (!socket.recv_exact(prefix, 8, deadline)) return std::nullopt;
  std::uint64_t length = 0;
  for (int i = 0; i < 8; ++i) length |= static_cast<std::uint64_t>(prefix[i]) << (8 * i);
  if (length > kMaxFrameBytes) throw io::IoError("oversized frame length");
  return length;
}

ParsedFrame recv_frame_payload(Socket& socket, std::uint64_t length, const Deadline& deadline) {
  std::string payload(length, '\0');
  if (length > 0 && !socket.recv_exact(payload.data(), length, deadline))
    throw io::IoError("unexpected end of stream");
  return parse_frame(std::move(payload));
}

std::optional<ParsedFrame> recv_frame(Socket& socket, const Deadline& deadline) {
  const std::optional<std::uint64_t> length = recv_frame_length(socket, deadline);
  if (!length) return std::nullopt;
  return recv_frame_payload(socket, *length, deadline);
}

void write_features(io::Writer& out, const nn::Matrix& features) {
  io::write_section(out, "FEAT", [&](io::Writer& w) { io::save_matrix(w, features); });
}

nn::Matrix read_features(io::Reader& in) {
  return io::parse_section(in, "FEAT", [](io::Reader& r) { return io::load_matrix(r); });
}

void write_rankings(io::Writer& out, const Rankings& rankings) {
  io::write_section(out, "RANK", [&](io::Writer& w) {
    w.u64(rankings.size());
    for (const std::vector<core::RankedLabel>& ranking : rankings) {
      w.u64(ranking.size());
      for (const core::RankedLabel& entry : ranking) {
        w.i32(entry.label);
        w.i32(entry.votes);
        w.f64(entry.distance);
      }
    }
  });
}

Rankings read_rankings(io::Reader& in) {
  return io::parse_section(in, "RANK", [](io::Reader& r) {
    Rankings rankings(checked(r.u64(), kMaxQueries, "queries"));
    for (std::vector<core::RankedLabel>& ranking : rankings) {
      ranking.resize(checked(r.u64(), kMaxEntries, "ranking entries"));
      for (core::RankedLabel& entry : ranking) {
        entry.label = r.i32();
        entry.votes = r.i32();
        entry.distance = r.f64();
      }
    }
    return rankings;
  });
}

void write_slice_scan(io::Writer& out, const core::SliceScan& scan) {
  const std::size_t n_queries = scan.candidates.size();
  WF_CHECK(scan.nearest.size() == n_queries, "write_slice_scan: query count mismatch");
  io::write_section(out, "PART", [&](io::Writer& w) {
    w.u64(n_queries);
    w.u64(scan.n_class_ids);
    for (const std::vector<core::Candidate>& candidates : scan.candidates) {
      w.u64(candidates.size());
      for (const core::Candidate& c : candidates) {
        w.f64(c.first);
        w.u64(c.second);
      }
    }
    w.u64(n_queries * scan.n_class_ids);
    std::vector<double> row;
    for (const std::vector<core::ClassNearest>& nearest : scan.nearest) {
      row.assign(scan.n_class_ids, core::kFar);
      for (const auto& [id, d] : nearest) {
        WF_CHECK(id < scan.n_class_ids, "write_slice_scan: nearest class id out of range");
        row[id] = d;
      }
      for (const double d : row) w.f64(d);
    }
    // Wire v2 extension: how many reference rows this slice actually
    // scanned, for the coordinator's coverage accounting.
    w.u64(scan.n_rows_scanned);
  });
}

core::SliceScan read_slice_scan(io::Reader& in) {
  return io::parse_section(in, "PART", [](io::Reader& r) {
    core::SliceScan scan;
    const std::uint64_t n_queries = checked(r.u64(), kMaxQueries, "queries");
    scan.n_class_ids = checked(r.u64(), kMaxEntries, "class ids");
    scan.candidates.resize(n_queries);
    for (std::vector<core::Candidate>& candidates : scan.candidates) {
      candidates.resize(checked(r.u64(), kMaxEntries, "candidates"));
      for (core::Candidate& c : candidates) {
        c.first = r.f64();
        c.second = r.u64();
      }
    }
    if (r.u64() != n_queries * scan.n_class_ids)
      throw io::IoError("slice scan best-distance table has the wrong shape");
    scan.nearest.resize(n_queries);
    for (std::vector<core::ClassNearest>& nearest : scan.nearest)
      for (std::uint32_t id = 0; id < scan.n_class_ids; ++id)
        if (const double d = r.f64(); d < core::kFar) nearest.emplace_back(id, d);
    // Absent from v1 peers: default to 0 ("unknown"), never an error.
    if (has_more(r)) scan.n_rows_scanned = r.u64();
    return scan;
  });
}

void write_info(io::Writer& out, const ServerInfo& info) {
  io::write_section(out, "INFO", [&](io::Writer& w) {
    w.str(info.attacker);
    w.u64(info.n_references);
    w.u64(info.slice_index);
    w.u64(info.slice_count);
    w.i32(info.knn_k);
    w.i32_vec(info.classes);
    w.i32_vec(info.id_to_label);
    // Wire v2 extension: the slice layout's shard count, for the
    // coordinator's handshake.
    w.u64(info.shard_count);
  });
}

ServerInfo read_info(io::Reader& in) {
  return io::parse_section(in, "INFO", [](io::Reader& r) {
    ServerInfo info;
    info.attacker = r.str();
    info.n_references = r.u64();
    info.slice_index = r.u64();
    info.slice_count = r.u64();
    info.knn_k = r.i32();
    info.classes = r.i32_vec();
    info.id_to_label = r.i32_vec();
    // Absent from v1 peers: default to 0 ("unknown").
    if (has_more(r)) info.shard_count = r.u64();
    if (info.slice_count == 0 || info.slice_index >= info.slice_count)
      throw io::IoError("corrupt server info (slice)");
    return info;
  });
}

void write_error(io::Writer& out, const ErrorReply& error) {
  io::write_section(out, "EMSG", [&](io::Writer& w) {
    w.u8(error.retryable ? 1 : 0);
    w.str(error.message);
    // Wire v2 extension: the error class, for retry loops and reporting.
    w.u8(static_cast<std::uint8_t>(error.klass));
  });
}

ErrorReply read_error(io::Reader& in) {
  return io::parse_section(in, "EMSG", [](io::Reader& r) {
    ErrorReply error;
    error.retryable = r.u8() != 0;
    error.message = r.str();
    // Absent from v1 peers; out-of-range values (a future class this build
    // does not know) degrade to unknown rather than failing the parse.
    if (has_more(r)) {
      const std::uint8_t klass = r.u8();
      error.klass = klass <= static_cast<std::uint8_t>(ErrorClass::shutdown)
                        ? static_cast<ErrorClass>(klass)
                        : ErrorClass::unknown;
    }
    return error;
  });
}

void write_reply_meta(io::Writer& out, const ReplyMeta& meta) {
  io::write_section(out, "DGRD", [&](io::Writer& w) {
    w.u8(meta.degraded ? 1 : 0);
    w.u64(meta.covered_references);
    w.u64(meta.total_references);
  });
}

void write_snapshot(io::Writer& out, const obs::Snapshot& snapshot) {
  io::write_section(out, "SNAP", [&](io::Writer& w) {
    w.u64(snapshot.entries.size());
    for (const obs::SnapshotEntry& entry : snapshot.entries) {
      w.str(entry.name);
      w.u8(static_cast<std::uint8_t>(entry.kind));
      w.u64(entry.count);
      w.f64(entry.value);
      w.f64(entry.sum);
      w.f64(entry.min);
      w.f64(entry.max);
      w.f64(entry.p50);
      w.f64(entry.p90);
      w.f64(entry.p99);
      w.f64_vec(entry.bounds);
      w.u64_vec(entry.buckets);
    }
  });
}

obs::Snapshot read_snapshot(io::Reader& in) {
  return io::parse_section(in, "SNAP", [](io::Reader& r) {
    obs::Snapshot snapshot;
    snapshot.entries.resize(checked(r.u64(), kMaxEntries, "snapshot entries"));
    for (obs::SnapshotEntry& entry : snapshot.entries) {
      entry.name = r.str();
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(obs::InstrumentKind::histogram))
        throw io::IoError("corrupt snapshot entry kind");
      entry.kind = static_cast<obs::InstrumentKind>(kind);
      entry.count = r.u64();
      entry.value = r.f64();
      entry.sum = r.f64();
      entry.min = r.f64();
      entry.max = r.f64();
      entry.p50 = r.f64();
      entry.p90 = r.f64();
      entry.p99 = r.f64();
      entry.bounds = r.f64_vec();
      entry.buckets = r.u64_vec();
    }
    return snapshot;
  });
}

void write_spans(io::Writer& out, const std::vector<obs::SpanRecord>& spans) {
  io::write_section(out, "SPNS", [&](io::Writer& w) {
    w.u64(spans.size());
    for (const obs::SpanRecord& span : spans) {
      w.str(span.name);
      w.u32(span.depth);
      w.u64(span.thread);
      w.u64(span.sequence);
      w.u64(span.start_us);
      w.u64(span.duration_us);
    }
  });
}

std::vector<obs::SpanRecord> read_trailing_spans(ParsedFrame& frame) {
  std::vector<obs::SpanRecord> spans;
  if (frame.reader && has_more(*frame.reader)) {
    spans = io::parse_section(*frame.reader, "SPNS", [](io::Reader& r) {
      std::vector<obs::SpanRecord> parsed(checked(r.u64(), kMaxEntries, "span records"));
      for (obs::SpanRecord& span : parsed) {
        span.name = r.str();
        span.depth = r.u32();
        span.thread = r.u64();
        span.sequence = r.u64();
        span.start_us = r.u64();
        span.duration_us = r.u64();
      }
      return parsed;
    });
  }
  return spans;
}

ReplyMeta read_trailing_meta(ParsedFrame& frame) {
  ReplyMeta meta;
  if (frame.reader && has_more(*frame.reader)) {
    meta = io::parse_section(*frame.reader, "DGRD", [](io::Reader& r) {
      ReplyMeta m;
      m.degraded = r.u8() != 0;
      m.covered_references = r.u64();
      m.total_references = r.u64();
      return m;
    });
  }
  return meta;
}

}  // namespace wf::serve
