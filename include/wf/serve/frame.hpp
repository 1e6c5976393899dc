#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/knn.hpp"
#include "io/serialize.hpp"
#include "nn/matrix.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/net.hpp"

namespace wf::serve {

// The serve wire protocol: length-prefixed frames whose payload is a
// standard wf::io file (magic + format version + 4-char kind + tagged
// sections) — the exact on-disk model format, reused on the socket.
//
//   frame   := u64 payload_bytes (little-endian) | payload
//   payload := "WFIO" | u32 version | kind | Section...
//
// Request kinds:  HELO (no body), QRYB {FEAT}, SCAN {FEAT}, STAT (no body),
//                 STOP (no body)
// Reply kinds:    SNFO {INFO}, RNKB {RANK [DGRD]}, SLCE {PART}, BYEE
//                 (no body), ERRR {EMSG}, METR {SNAP [SPNS]}
//
// Every request gets exactly one reply. Malformed, truncated or oversized
// frames raise io::IoError — never a crash; a server answers them with an
// ERRR frame where the stream still permits one.
//
// Wire evolution: new fields ride either as trailing bytes inside an
// existing section (EMSG error class, PART rows-scanned, INFO shard count) or as an optional
// trailing section (RNKB's DGRD degradation marker, present only on
// degraded replies). Readers treat absent extensions as their defaults, so
// a v1 peer's frames still parse — and a full-coverage RNKB reply is
// byte-identical to v1, so pre-extension clients keep parsing every
// non-degraded reply. PART keeps v1's dense per-class distance table (kFar
// for a class the slice did not reach): only its codec knows that layout,
// converting it to and from SliceScan's sparse per-query nearest lists.
inline constexpr std::uint32_t kServeWireVersion = 2;

inline constexpr char kFrameHello[] = "HELO";
inline constexpr char kFrameQuery[] = "QRYB";
inline constexpr char kFrameScan[] = "SCAN";
inline constexpr char kFrameStat[] = "STAT";
inline constexpr char kFrameStop[] = "STOP";
inline constexpr char kFrameMetrics[] = "METR";
inline constexpr char kFrameInfo[] = "SNFO";
inline constexpr char kFrameRankings[] = "RNKB";
inline constexpr char kFrameSlice[] = "SLCE";
inline constexpr char kFrameBye[] = "BYEE";
inline constexpr char kFrameError[] = "ERRR";

// Hard cap on one frame's payload: query batches and full rankings are
// bounded, and a corrupt length field must fail before any allocation.
inline constexpr std::uint64_t kMaxFrameBytes = std::uint64_t{1} << 30;  // 1 GiB

using Rankings = std::vector<std::vector<core::RankedLabel>>;

// What a server reports about itself in a SNFO reply. `classes` are the
// sorted page labels the model targets (any attacker); `id_to_label` is the
// dense class-id table and is only non-empty for attackers that support
// slice scans — it is what the coordinator's merge needs.
struct ServerInfo {
  std::string attacker;
  std::uint64_t n_references = 0;  // total rows of the full reference set
  std::uint64_t slice_index = 0;   // which shard slice this node scans
  std::uint64_t slice_count = 1;
  std::int32_t knn_k = 0;          // 0 when the attacker has no k-NN stage
  std::vector<int> classes;
  std::vector<int> id_to_label;
  // Shards of the store a slice scan partitions: slices of one model only
  // fit together when every backend deals its rows into the same count.
  // 0 from peers that predate the field.
  std::uint64_t shard_count = 0;
};

// How a request failed, beyond retryable/not: retry loops branch on
// `retryable`, operators and experiment CSVs read the class.
enum class ErrorClass : std::uint8_t {
  unknown = 0,      // pre-extension peers, or unclassified server faults
  protocol = 1,     // malformed/unsupported frame: retrying cannot help
  backpressure = 2, // queue full: resend after a pause
  timeout = 3,      // a deadline expired mid-request
  unavailable = 4,  // backends down / results unobtainable right now
  shutdown = 5,     // request arrived while the server was draining
};
const char* error_class_name(ErrorClass klass);

struct ErrorReply {
  bool retryable = false;  // true: transient, resend later (possibly elsewhere)
  std::string message;
  ErrorClass klass = ErrorClass::unknown;
};

// Degradation marker of a RNKB reply: appended as a DGRD section only when
// the coordinator answered from a strict subset of the reference set (the
// --partial mode), so full-coverage replies stay byte-identical to wire v1.
struct ReplyMeta {
  bool degraded = false;
  std::uint64_t covered_references = 0;  // reference rows the answer scanned
  std::uint64_t total_references = 0;    // rows a full answer would scan
};

// A received frame, parsed down to its kind with the Reader positioned at
// the first section.
struct ParsedFrame {
  std::string kind;
  std::unique_ptr<std::istringstream> stream;
  std::unique_ptr<io::Reader> reader;
};

// Encode one frame (length prefix included): `body` writes the payload's
// sections. Pass {} for body-less kinds (HELO/STOP/BYEE).
std::string encode_frame(const std::string& kind,
                         const std::function<void(io::Writer&)>& body = {});

// Validate the length-prefix-stripped payload bytes of one frame: checks
// magic and version and reads the kind. Throws io::IoError on garbage.
ParsedFrame parse_frame(std::string payload);

// Socket transport. recv_frame returns nullopt on a clean peer close at a
// frame boundary; throws io::IoError on truncation or an oversized length,
// TimeoutError past the deadline.
void send_frame(Socket& socket, const std::string& frame_bytes, const Deadline& deadline = {});
std::optional<ParsedFrame> recv_frame(Socket& socket, const Deadline& deadline = {});

// Phase-split receive, for servers that bound the idle wait (for a frame to
// begin) and the mid-frame wait (for a started frame to finish) separately:
// an idle timeout closes the connection quietly, a mid-frame one is
// answered with ERRR(timeout). recv_frame_length returns nullopt on a clean
// close, the validated payload length otherwise.
std::optional<std::uint64_t> recv_frame_length(Socket& socket, const Deadline& deadline = {});
ParsedFrame recv_frame_payload(Socket& socket, std::uint64_t length,
                               const Deadline& deadline = {});

// Section codecs (each writes/parses exactly one tagged section).
void write_features(io::Writer& out, const nn::Matrix& features);
nn::Matrix read_features(io::Reader& in);

void write_rankings(io::Writer& out, const Rankings& rankings);
Rankings read_rankings(io::Reader& in);

void write_slice_scan(io::Writer& out, const core::SliceScan& scan);
core::SliceScan read_slice_scan(io::Reader& in);

void write_info(io::Writer& out, const ServerInfo& info);
ServerInfo read_info(io::Reader& in);

void write_error(io::Writer& out, const ErrorReply& error);
ErrorReply read_error(io::Reader& in);

void write_reply_meta(io::Writer& out, const ReplyMeta& meta);
// Reads the trailing DGRD section if the payload carries one (after the
// main section was consumed); otherwise returns a non-degraded default.
ReplyMeta read_trailing_meta(ParsedFrame& frame);

// METR reply body: a full metrics snapshot (SNAP section, entries in the
// registry's sorted order), optionally followed by a SPNS section carrying
// recent span records — written only when spans exist, so span-free
// snapshots stay byte-identical for peers that predate tracing.
void write_snapshot(io::Writer& out, const obs::Snapshot& snapshot);
obs::Snapshot read_snapshot(io::Reader& in);

void write_spans(io::Writer& out, const std::vector<obs::SpanRecord>& spans);
// Reads the trailing SPNS section if present; empty vector otherwise.
std::vector<obs::SpanRecord> read_trailing_spans(ParsedFrame& frame);

}  // namespace wf::serve
