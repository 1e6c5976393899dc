#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <sstream>
#include <string>

#include "core/embedding_config.hpp"
#include "core/sharded_reference_set.hpp"
#include "data/dataset.hpp"
#include "io/binary.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"

namespace wf::core {
class Attacker;
}

namespace wf::io {

// On-disk layout (all integers little-endian):
//
//   File    := "WFIO" | u32 format_version | 4-char kind | Section...
//   Section := 4-char tag | u64 payload_bytes | payload
//
// `kind` names what the file holds ("ATKR" attacker, "DATA" dataset,
// "MODL" embedding model); sections carry the object bodies. Readers pull
// sections by expected tag and parse each payload from its own bounded
// buffer, so truncation and tag mismatches surface as IoError instead of
// misaligned garbage. Files from a newer format version are rejected with
// the version named in the error.
inline constexpr std::uint32_t kFormatVersion = 1;

void write_header(Writer& out, const std::string& kind);
// Returns the file kind; throws IoError on bad magic or unsupported version.
std::string read_header(Reader& in);
// Reads and checks one header, requiring `kind`.
void expect_header(Reader& in, const std::string& kind);

// Write one section: tag + length + the bytes `body` produced.
template <typename Body>
void write_section(Writer& out, const std::string& tag, Body&& body);
// Read one section, requiring `tag`; returns its payload.
std::string read_section(Reader& in, const std::string& tag);
// Parse a section payload with `body(Reader&)`.
template <typename Body>
auto parse_section(Reader& in, const std::string& tag, Body&& body);

// Object codecs (section payload bodies).
void save_matrix(Writer& out, const nn::Matrix& m);
nn::Matrix load_matrix(Reader& in);
// Shape-checked variant: rejects a mismatching stored shape BEFORE
// allocating, so hostile dims cannot force a multi-GiB zero-fill.
nn::Matrix load_matrix(Reader& in, std::size_t rows, std::size_t cols);

// Inference parameters only (sizes + weights + biases); a loaded Mlp
// resumes training with fresh Adam state, but forwards bit-identically.
void save_mlp(Writer& out, const nn::Mlp& mlp);
nn::Mlp load_mlp(Reader& in);

void save_embedding_config(Writer& out, const core::EmbeddingConfig& config);
core::EmbeddingConfig load_embedding_config(Reader& in);

// The k-NN attackers' KNNC body: i32 k, then a retired u64 (the shard count
// of earlier builds), written as 1 so older readers accept the file and
// never read back. load_knn_k throws IoError when k < 1.
void save_knn_k(Writer& out, int k);
int load_knn_k(Reader& in);

// u64 dim | u64 table count | u64 next_row_id | i32[] id -> label | per
// table: f32[] data, i32[] labels, f64[] norms, i32[] class ids, u64[] row
// ids. The writer stores one table in ascending row id, so the bytes do not
// depend on the set's shard count; the reader accepts 1..4096 tables (older
// files hold one per shard) and re-shards under default_shard_count().
void save_reference_set(Writer& out, const core::ShardedReferenceSet& refs);
core::ShardedReferenceSet load_reference_set(Reader& in);

void save_dataset_body(Writer& out, const data::Dataset& dataset);
data::Dataset load_dataset_body(Reader& in);

// Whole-file corpus helpers ("DATA" kind).
void save_dataset(const std::string& path, const data::Dataset& dataset);
data::Dataset load_dataset(const std::string& path);

// Attacker files ("ATKR" kind): header, a NAME section with the registry
// name, then the attacker's own body sections. load_attacker dispatches on
// the stored name ("adaptive", "forest", "kfp-knn") and rebuilds the
// matching concrete type. Both path writers (save_dataset, save_attacker)
// go through io::replace_file, so a save that fails leaves the old file
// intact.
void save_attacker(std::ostream& out, const core::Attacker& attacker);
void save_attacker(const std::string& path, const core::Attacker& attacker);
std::unique_ptr<core::Attacker> load_attacker(std::istream& in);
std::unique_ptr<core::Attacker> load_attacker(const std::string& path);
// Consume the ATKR header + NAME section, leaving `in` at the body — the
// one parse site shared by load_attacker and the typed Attacker::load.
std::string read_attacker_name(Reader& in);

// --- template bodies -------------------------------------------------------

namespace detail {
void write_tagged_payload(Writer& out, const std::string& tag, const std::string& payload);
std::unique_ptr<std::istringstream> payload_stream(std::string payload);
std::string buffer_payload(const std::function<void(Writer&)>& body);
// Throws IoError unless the section payload was read to its end — trailing
// bytes mean corruption or a writer/reader drift the framing must surface.
void require_consumed(std::istream& payload, const std::string& tag);
}  // namespace detail

template <typename Body>
void write_section(Writer& out, const std::string& tag, Body&& body) {
  detail::write_tagged_payload(out, tag,
                               detail::buffer_payload(std::function<void(Writer&)>(body)));
}

template <typename Body>
auto parse_section(Reader& in, const std::string& tag, Body&& body) {
  const auto stream = detail::payload_stream(read_section(in, tag));
  Reader section(*stream);
  auto result = body(section);
  detail::require_consumed(*stream, tag);
  return result;
}

}  // namespace wf::io
