#include "index/store.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "io/serialize.hpp"
#include "nn/matrix.hpp"
#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace wf::index {

namespace {

// The bulk arrays are written and mapped as raw host memory, so the host
// representation must match the declared on-disk one.
static_assert(sizeof(int) == 4 && sizeof(float) == 4 && sizeof(double) == 8 &&
              sizeof(std::uint64_t) == 8);

void require_little_endian() {
  if (std::endian::native != std::endian::little)
    throw io::IoError("index files are little-endian; this host is not");
}

std::string journal_path_of(const std::string& path) { return path + ".journal"; }

// The shared obs instruments, fetched once from the global registry.
struct IndexMetrics {
  obs::Counter* probes_total;
  obs::Counter* clusters_scanned;
  obs::Counter* rows_scanned;
  obs::Counter* rebuilds_total;
  obs::Counter* journal_torn_tails;
  obs::Gauge* journal_bytes;
};

const IndexMetrics& index_metrics() {
  static const IndexMetrics metrics = {
      &obs::Registry::global().counter("index.probes_total"),
      &obs::Registry::global().counter("index.clusters_scanned"),
      &obs::Registry::global().counter("index.rows_scanned"),
      &obs::Registry::global().counter("index.rebuilds_total"),
      &obs::Registry::global().counter("index.journal_torn_tails"),
      &obs::Registry::global().gauge("index.journal_bytes"),
  };
  return metrics;
}

constexpr std::size_t kHeaderBytes = 104;

// Journal framing (see index/store.hpp): an add record's bytes besides its
// embedding (kind, cluster, label, row id, ‖r‖²) and a remove record's
// (kind, label).
constexpr std::uint64_t kAddRecordFixedBytes = 29;
constexpr std::uint64_t kRemoveRecordBytes = 5;

// The journal header of a base of width `dim` with `clusters` clusters:
// "WFIO", format version, "IVFJ", layout version, dim, clusters (32 B).
std::string journal_header(std::uint64_t dim, std::uint64_t clusters) {
  std::ostringstream buf;
  io::Writer w(buf);
  io::write_header(w, "IVFJ");
  w.u32(kJournalLayoutVersion);
  w.u64(dim);
  w.u64(clusters);
  return buf.str();
}

std::size_t align64(std::size_t offset) { return (offset + 63) & ~std::size_t{63}; }

struct Header {
  std::uint64_t dim = 0;
  std::uint64_t clusters = 0;
  std::uint64_t rows = 0;
  std::uint64_t next_row_id = 0;
  std::uint64_t n_class_ids = 0;
  std::uint64_t default_probes = 0;
  std::uint64_t kmeans_seed = 0;
  std::uint64_t file_bytes = 0;
};

// The three fixed header fields at offsets 72..95 (see index/store.hpp) are
// written, never read back: the k-means constants every build uses, and the
// churn fraction of a retired automatic re-clustering (its old default), so
// files stay byte-identical to those of earlier builds.
constexpr double kFixedRebuildChurn = 0.5;

// Byte offset of each array (see the layout comment in index/store.hpp).
struct Layout {
  std::size_t cluster_rows = 0;
  std::size_t id_to_label = 0;
  std::size_t centroids = 0;
  std::size_t data = 0;
  std::size_t sq_norms = 0;
  std::size_t class_ids = 0;
  std::size_t row_ids = 0;
  std::size_t total = 0;
};

Layout layout_of(const Header& h) {
  Layout l;
  l.cluster_rows = align64(kHeaderBytes);
  l.id_to_label = align64(l.cluster_rows + 8 * h.clusters);
  l.centroids = align64(l.id_to_label + 4 * h.n_class_ids);
  l.data = align64(l.centroids + 4 * h.clusters * h.dim);
  l.sq_norms = align64(l.data + 4 * h.rows * h.dim);
  l.class_ids = align64(l.sq_norms + 8 * h.rows);
  l.row_ids = align64(l.class_ids + 4 * h.rows);
  l.total = l.row_ids + 8 * h.rows;
  return l;
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

// Header parse + every check that does not touch the bulk arrays: magic,
// versions, kind, plausibility caps (a corrupt count must raise IoError, not
// a multi-GiB allocation or an overflowing layout), and the file_bytes pin
// against both the declared layout and the actual mapping size.
Header parse_header(const io::MappedFile& map) {
  require_little_endian();
  if (map.size() < kHeaderBytes)
    throw io::IoError("index file truncated: " + map.path());
  const std::uint8_t* p = map.data();
  if (std::memcmp(p, "WFIO", 4) != 0) throw io::IoError("not a wf::io file (bad magic)");
  const std::uint32_t version = get_u32(p + 4);
  if (version != io::kFormatVersion)
    throw io::IoError("unsupported format version " + std::to_string(version) +
                      " (supported: " + std::to_string(io::kFormatVersion) + ")");
  const std::string kind(reinterpret_cast<const char*>(p + 8), 4);
  if (kind != "IVFX") throw io::IoError("expected a IVFX file, found " + kind);
  const std::uint32_t layout_version = get_u32(p + 12);
  if (layout_version != kIndexLayoutVersion)
    throw io::IoError("unsupported index layout version " + std::to_string(layout_version) +
                      " (supported: " + std::to_string(kIndexLayoutVersion) + ")");
  Header h;
  h.dim = get_u64(p + 16);
  h.clusters = get_u64(p + 24);
  h.rows = get_u64(p + 32);
  h.next_row_id = get_u64(p + 40);
  h.n_class_ids = get_u64(p + 48);
  h.default_probes = get_u64(p + 56);
  h.kmeans_seed = get_u64(p + 64);
  h.file_bytes = get_u64(p + 96);
  if (h.dim == 0 || h.dim > (std::uint64_t{1} << 20))
    throw io::IoError("index header implausible: dim " + std::to_string(h.dim));
  if (h.clusters == 0 || h.clusters > (std::uint64_t{1} << 24))
    throw io::IoError("index header implausible: clusters " + std::to_string(h.clusters));
  if (h.rows > core::kMaxRowIds)
    throw io::IoError("index header implausible: rows " + std::to_string(h.rows));
  // Row and class ids must fit a packed candidate key (core/reference_store.hpp).
  if (h.next_row_id > core::kMaxRowIds)
    throw io::IoError("index header implausible: next_row_id " + std::to_string(h.next_row_id));
  if (h.n_class_ids > core::kMaxClassIds)
    throw io::IoError("index header implausible: class ids " + std::to_string(h.n_class_ids));
  const Layout l = layout_of(h);
  if (h.file_bytes != l.total)
    throw io::IoError("index header inconsistent: file_bytes " +
                      std::to_string(h.file_bytes) + " != layout " + std::to_string(l.total));
  if (map.size() != h.file_bytes)
    throw io::IoError("index file truncated: expected " + std::to_string(h.file_bytes) +
                      " bytes, have " + std::to_string(map.size()) + " (" + map.path() + ")");
  return h;
}

struct BaseTables {
  Header header;
  Layout layout;
  const std::uint64_t* cluster_rows = nullptr;
  const int* id_to_label = nullptr;
  const float* centroids = nullptr;
  const float* data = nullptr;
  const double* sq_norms = nullptr;
  const int* class_ids = nullptr;
  const std::uint64_t* row_ids = nullptr;
};

BaseTables base_tables(const io::MappedFile& map) {
  BaseTables t;
  t.header = parse_header(map);
  t.layout = layout_of(t.header);
  const std::uint8_t* base = map.data();
  t.cluster_rows = reinterpret_cast<const std::uint64_t*>(base + t.layout.cluster_rows);
  t.id_to_label = reinterpret_cast<const int*>(base + t.layout.id_to_label);
  t.centroids = reinterpret_cast<const float*>(base + t.layout.centroids);
  t.data = reinterpret_cast<const float*>(base + t.layout.data);
  t.sq_norms = reinterpret_cast<const double*>(base + t.layout.sq_norms);
  t.class_ids = reinterpret_cast<const int*>(base + t.layout.class_ids);
  t.row_ids = reinterpret_cast<const std::uint64_t*>(base + t.layout.row_ids);
  std::uint64_t sum = 0;
  for (std::uint64_t c = 0; c < t.header.clusters; ++c) {
    sum += t.cluster_rows[c];
    if (sum > t.header.rows) throw io::IoError("index cluster rows exceed row count");
  }
  if (sum != t.header.rows) throw io::IoError("index cluster rows do not cover row count");
  return t;
}

// O(rows) pass over the small id tables only (the embedding data stays
// untouched, so open cost is unaffected): every class id must index the
// label table and every row id must precede the recorded next_row_id.
void validate_ids(const BaseTables& t) {
  const auto n_ids = static_cast<std::int64_t>(t.header.n_class_ids);
  for (std::uint64_t i = 0; i < t.header.rows; ++i) {
    const int id = t.class_ids[i];
    if (id < 0 || static_cast<std::int64_t>(id) >= n_ids)
      throw io::IoError("index class id out of range");
    if (t.row_ids[i] >= t.header.next_row_id)
      throw io::IoError("index row id out of range");
  }
}

void raw_write(std::ostream& out, const void* data, std::size_t bytes) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  if (!out) throw io::IoError("write failed");
}

void pad_to(std::ostream& out, std::size_t& offset, std::size_t target) {
  WF_CHECK(target >= offset, "index writer: layout offsets must be monotone");
  static constexpr char kZeros[64] = {};
  while (offset < target) {
    const std::size_t chunk = std::min<std::size_t>(sizeof(kZeros), target - offset);
    raw_write(out, kZeros, chunk);
    offset += chunk;
  }
}

std::int64_t journal_size_or_zero(const std::string& journal_path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(journal_path, ec);
  return ec ? 0 : static_cast<std::int64_t>(size);
}

// Streams the journal (if one exists) of the base with header `h` through
// the two callbacks in record order. on_add(cluster, label, row_id, sq_norm,
// embedding); on_remove(label). Shared by every journal consumer so they
// cannot drift. Returns the bytes of the complete header and records: a
// journal that ends inside its header or its last record (an append cut
// short) reads as if the partial bytes were absent, with a warning and one
// index.journal_torn_tails count. An unknown record kind raises IoError.
// Add row ids must start at h.next_row_id and strictly increase, as
// IndexJournalWriter writes them; anything else is a journal the base
// already absorbed (or a forged one) and raises IoError.
template <typename OnAdd, typename OnRemove>
std::uint64_t scan_journal(const std::string& journal_path, const Header& h, OnAdd&& on_add,
                           OnRemove&& on_remove) {
  const std::uint64_t dim = h.dim;
  const std::uint64_t clusters = h.clusters;
  std::ifstream in(journal_path, std::ios::binary | std::ios::ate);
  if (!in) return 0;  // no journal: a bare base store
  const auto bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  const auto torn = [&](std::uint64_t complete) {
    util::log_warn() << "index journal " << journal_path << ": ignoring a torn tail of "
                     << bytes - complete << " bytes (an append cut short)";
    index_metrics().journal_torn_tails->inc();
    return complete;
  };
  if (bytes == 0) return 0;
  // A header is torn only if its bytes begin the one header this base's
  // writer would have written; anything else is a corrupt journal.
  const std::string header = journal_header(dim, clusters);
  if (bytes < header.size()) {
    std::string head(bytes, '\0');
    in.read(head.data(), static_cast<std::streamsize>(bytes));
    if (!in || head != header.substr(0, bytes))
      throw io::IoError("corrupt journal header: " + journal_path);
    return torn(0);
  }
  io::Reader r(in);
  const std::string kind = io::read_header(r);
  if (kind != "IVFJ") throw io::IoError("expected a IVFJ journal, found " + kind);
  const std::uint32_t layout_version = r.u32();
  if (layout_version != kJournalLayoutVersion)
    throw io::IoError("unsupported journal layout version " + std::to_string(layout_version) +
                      " (supported: " + std::to_string(kJournalLayoutVersion) + ")");
  if (r.u64() != dim) throw io::IoError("journal/index dim mismatch: " + journal_path);
  if (r.u64() != clusters)
    throw io::IoError("journal/index cluster count mismatch: " + journal_path);
  const std::uint64_t add_bytes = kAddRecordFixedBytes + 4 * dim;
  std::vector<float> embedding(dim);
  std::uint64_t next_row_id = h.next_row_id;
  std::uint64_t offset = header.size();
  while (offset < bytes) {
    const std::uint8_t record = r.u8();
    if (record == 1) {
      if (bytes - offset < add_bytes) return torn(offset);
      const std::uint64_t cluster = r.u64();
      const int label = r.i32();
      const std::uint64_t row_id = r.u64();
      const double sq_norm = r.f64();
      for (float& x : embedding) x = r.f32();
      if (cluster >= clusters)
        throw io::IoError("journal add record: cluster out of range");
      if (row_id >= core::kMaxRowIds)
        throw io::IoError("journal add record: row id past 2^40");
      if (row_id < next_row_id)
        throw io::IoError("stale journal " + journal_path + ": add record row id " +
                          std::to_string(row_id) + " precedes " + std::to_string(next_row_id) +
                          " (the base holds it or the journal repeats it); delete the "
                          "journal if a rebuild was interrupted");
      next_row_id = row_id + 1;
      on_add(cluster, label, row_id, sq_norm, embedding);
      offset += add_bytes;
    } else if (record == 2) {
      if (bytes - offset < kRemoveRecordBytes) return torn(offset);
      on_remove(r.i32());
      offset += kRemoveRecordBytes;
    } else {
      throw io::IoError("unknown journal record kind " + std::to_string(record));
    }
  }
  return offset;
}

IvfConfig config_of(const Header& h) {
  IvfConfig config;
  // The stored cluster count is pinned (not the original "0 = auto"), so a
  // rebuild from this file reproduces the same partition width.
  config.clusters = h.clusters;
  config.probes = h.default_probes;
  config.seed = h.kmeans_seed;
  return config;
}

// Writes `store` as a whole IVFX base file to `out`.
void write_base(std::ostream& out, const IvfReferenceStore& store) {
  require_little_endian();
  if (store.dim() == 0 || store.clusters() == 0)
    throw io::IoError("cannot write an empty index (no clusters)");
  Header h;
  h.dim = store.dim();
  h.clusters = store.clusters();
  h.rows = store.size();
  h.next_row_id = store.next_row_id();
  h.n_class_ids = store.n_class_ids();
  h.default_probes = store.config().probes;
  h.kmeans_seed = store.config().seed;
  const Layout l = layout_of(h);
  h.file_bytes = l.total;

  io::Writer w(out);
  io::write_header(w, "IVFX");
  w.u32(kIndexLayoutVersion);
  w.u64(h.dim);
  w.u64(h.clusters);
  w.u64(h.rows);
  w.u64(h.next_row_id);
  w.u64(h.n_class_ids);
  w.u64(h.default_probes);
  w.u64(h.kmeans_seed);
  w.u64(kKmeansIters);
  w.u64(kSamplePerCluster);
  w.f64(kFixedRebuildChurn);
  w.u64(h.file_bytes);
  std::size_t offset = kHeaderBytes;

  pad_to(out, offset, l.cluster_rows);
  std::vector<std::uint64_t> cluster_rows(h.clusters);
  for (std::size_t c = 0; c < h.clusters; ++c) cluster_rows[c] = store.cell(c).rows();
  raw_write(out, cluster_rows.data(), 8 * cluster_rows.size());
  offset += 8 * cluster_rows.size();

  pad_to(out, offset, l.id_to_label);
  raw_write(out, store.id_to_label().data(), 4 * store.id_to_label().size());
  offset += 4 * store.id_to_label().size();

  pad_to(out, offset, l.centroids);
  raw_write(out, store.centroids().data(), 4 * store.centroids().size());
  offset += 4 * store.centroids().size();

  pad_to(out, offset, l.data);
  for (std::size_t c = 0; c < h.clusters; ++c) {
    const auto& cell = store.cell(c);
    raw_write(out, cell.data.data(), 4 * cell.data.size());
    offset += 4 * cell.data.size();
  }

  pad_to(out, offset, l.sq_norms);
  for (std::size_t c = 0; c < h.clusters; ++c) {
    const auto& cell = store.cell(c);
    raw_write(out, cell.sq_norms.data(), 8 * cell.sq_norms.size());
    offset += 8 * cell.sq_norms.size();
  }

  pad_to(out, offset, l.class_ids);
  for (std::size_t c = 0; c < h.clusters; ++c) {
    const auto& cell = store.cell(c);
    raw_write(out, cell.class_ids.data(), 4 * cell.class_ids.size());
    offset += 4 * cell.class_ids.size();
  }

  pad_to(out, offset, l.row_ids);
  for (std::size_t c = 0; c < h.clusters; ++c) {
    const auto& cell = store.cell(c);
    raw_write(out, cell.row_ids.data(), 8 * cell.row_ids.size());
    offset += 8 * cell.row_ids.size();
  }
  WF_CHECK(offset == l.total, "index writer: layout/write drift");
}

// Replaces `path` with `store` (io::replace_file) and deletes the old base's
// journal, which belongs to the file it replaced: replayed onto the new base
// it would add foreign rows, or fail on a cluster-count mismatch. A serving
// daemon keeps reading the old inode, where a write in place would truncate
// the pages under its mapping. `durable` adds the fsyncs a compaction needs
// before it drops a journal. A crash between the rename and the delete
// still leaves the old journal beside the new base.
void write_replacing(const std::string& path, const IvfReferenceStore& store, bool durable) {
  io::replace_file(path, [&](std::ostream& out) { write_base(out, store); }, durable);
  std::error_code ec;
  std::filesystem::remove(journal_path_of(path), ec);
}

}  // namespace

void write_index_file(const std::string& path, const IvfReferenceStore& store) {
  write_replacing(path, store, false);
}

std::unique_ptr<core::ReferenceStore> open_index(const std::string& path, std::size_t probes) {
  return std::make_unique<MappedIndex>(path, probes);
}

std::size_t rebuild_index_file(const std::string& path) {
  // Clusters the live rows straight out of the mapping (base + replayed
  // journal); the row-id sequence continues past the file's, since ids
  // are never reused.
  const MappedIndex mapped(path);
  const IvfReferenceStore store(mapped, mapped.config(), mapped.next_row_id());
  // Crash order: the new base is durable before it replaces the old one,
  // and the rename is durable before the journal it absorbed goes away.
  write_replacing(path, store, true);
  index_metrics().rebuilds_total->inc();
  index_metrics().journal_bytes->set(0);
  return store.size();
}

IndexJournalWriter::IndexJournalWriter(const std::string& index_path)
    : journal_path_(journal_path_of(index_path)) {
  io::MappedFile map(index_path);
  const BaseTables t = base_tables(map);
  dim_ = t.header.dim;
  centroids_.assign(t.centroids, t.centroids + t.header.clusters * dim_);
  centroid_norms_.resize(t.header.clusters);
  for (std::size_t c = 0; c < t.header.clusters; ++c)
    centroid_norms_[c] = nn::squared_norm(centroids_.data() + c * dim_, dim_);
  next_row_id_ = t.header.next_row_id;
  // Continue the row-id sequence past anything already journaled.
  const std::uint64_t complete = scan_journal(
      journal_path_, t.header,
      [&](std::uint64_t, int, std::uint64_t row_id, double, const std::vector<float>&) {
        next_row_id_ = row_id + 1;
      },
      [](int) {});
  // Cut a torn tail off, so the next append starts on a record boundary
  // (and writes a fresh header when none survived).
  if (complete < static_cast<std::uint64_t>(journal_size_or_zero(journal_path_))) {
    std::error_code ec;
    std::filesystem::resize_file(journal_path_, complete, ec);
    if (ec)
      throw io::IoError("cannot cut the torn tail of " + journal_path_ + ": " + ec.message());
  }
  index_metrics().journal_bytes->set(static_cast<std::int64_t>(complete));
}

void IndexJournalWriter::add(std::span<const float> embedding, int label) {
  if (embedding.size() != dim_)
    throw io::IoError("IndexJournalWriter::add: embedding width mismatch");
  // The cluster of the nearest base centroid, which the probe scans with it.
  thread_local std::vector<std::size_t> nearest;
  detail::nearest_centroids(embedding.data(), centroids_.data(), centroid_norms_.data(),
                            centroid_norms_.size(), dim_, 1, nearest);
  const std::size_t cluster = nearest.front();
  std::ostringstream buf;
  io::Writer w(buf);
  w.u8(1);
  w.u64(cluster);
  w.i32(label);
  w.u64(next_row_id_);
  w.f64(nn::squared_norm(embedding.data(), dim_));
  for (const float x : embedding) w.f32(x);
  append(buf.str());
  ++next_row_id_;
}

void IndexJournalWriter::remove_class(int label) {
  std::ostringstream buf;
  io::Writer w(buf);
  w.u8(2);
  w.i32(label);
  append(buf.str());
}

void IndexJournalWriter::append(const std::string& record) {
  const bool fresh = journal_size_or_zero(journal_path_) == 0;
  std::ofstream out(journal_path_, std::ios::binary | std::ios::app);
  if (!out) throw io::IoError("cannot open journal " + journal_path_ + " for append");
  if (fresh) {
    const std::string header = journal_header(dim_, centroid_norms_.size());
    raw_write(out, header.data(), header.size());
  }
  raw_write(out, record.data(), record.size());
  out.flush();
  if (!out) throw io::IoError("journal write failed: " + journal_path_);
  out.close();
  index_metrics().journal_bytes->set(journal_size_or_zero(journal_path_));
}

IndexInfo read_index_info(const std::string& path) {
  io::MappedFile map(path);
  const BaseTables t = base_tables(map);
  IndexInfo info;
  info.dim = t.header.dim;
  info.clusters = t.header.clusters;
  info.rows = t.header.rows;
  info.n_class_ids = t.header.n_class_ids;
  info.config = config_of(t.header);
  info.next_row_id = t.header.next_row_id;
  info.file_bytes = t.header.file_bytes;
  info.min_cluster_rows = t.header.rows;
  for (std::uint64_t c = 0; c < t.header.clusters; ++c) {
    info.min_cluster_rows = std::min<std::size_t>(info.min_cluster_rows, t.cluster_rows[c]);
    info.max_cluster_rows = std::max<std::size_t>(info.max_cluster_rows, t.cluster_rows[c]);
  }
  info.journal_bytes = scan_journal(
      journal_path_of(path), t.header,
      [&](std::uint64_t, int, std::uint64_t, double, const std::vector<float>&) {
        ++info.journal_adds;
      },
      [&](int) { ++info.journal_removes; });
  return info;
}

MappedIndex::MappedIndex(const std::string& path, std::size_t probes) : map_(path) {
  const BaseTables t = base_tables(map_);
  validate_ids(t);
  config_ = config_of(t.header);
  if (probes != 0) config_.probes = probes;
  dim_ = t.header.dim;
  size_ = t.header.rows;
  next_row_id_ = t.header.next_row_id;
  centroids_ = t.centroids;
  const std::size_t n_clusters = t.header.clusters;
  centroid_norms_.resize(n_clusters);
  for (std::size_t c = 0; c < n_clusters; ++c)
    centroid_norms_[c] = nn::squared_norm(centroids_ + c * dim_, dim_);
  // The mapping stays read-only until a removal makes it copy-on-write;
  // only remove_class writes through these pointers.
  base_.resize(n_clusters);
  std::uint64_t off = 0;
  for (std::size_t c = 0; c < n_clusters; ++c) {
    base_[c] = {const_cast<float*>(t.data + off * dim_), const_cast<double*>(t.sq_norms + off),
                const_cast<int*>(t.class_ids + off),
                const_cast<std::uint64_t*>(t.row_ids + off), t.cluster_rows[c]};
    off += t.cluster_rows[c];
  }
  tails_.resize(n_clusters);
  try {
    ids_ = core::ClassIdSpace(
        std::vector<int>(t.id_to_label, t.id_to_label + t.header.n_class_ids));
  } catch (const std::invalid_argument& e) {
    throw io::IoError(std::string("index id table: ") + e.what());
  }

  // The one journal replay, in record order.
  bool writable = false;
  const std::uint64_t journal_bytes = scan_journal(
      journal_path_of(path), t.header,
      [&](std::uint64_t cluster, int label, std::uint64_t row_id, double sq_norm,
          const std::vector<float>& embedding) {
        int class_id = 0;
        try {
          class_id = ids_.intern(label);
        } catch (const std::invalid_argument& e) {
          throw io::IoError("journal for " + path + ": " + e.what());
        }
        tails_[cluster].append(embedding, sq_norm, class_id, row_id);
        next_row_id_ = row_id + 1;
        ++size_;
      },
      [&](int label) {
        if (ids_.find(label) < 0) return;  // absent: nothing to write
        if (!writable) {
          map_.make_writable();
          writable = true;
        }
        remove_class(label);
      });
  index_metrics().journal_bytes->set(static_cast<std::int64_t>(journal_bytes));
}

void MappedIndex::remove_class(int label) {
  // core::erase_class's removal, split across the base clusters and the
  // tails: the victim and last ids are read before erase_class releases
  // the victim.
  const int victim = ids_.find(label);
  const int last = static_cast<int>(ids_.size()) - 1;
  for (core::RowColumns& cluster : base_) {
    const std::size_t kept = core::remove_class_rows(cluster, dim_, victim, last);
    size_ -= cluster.rows - kept;
    cluster.rows = kept;
  }
  size_ -= core::erase_class(label, dim_, ids_, tails_);
}

core::ShardView MappedIndex::shard_view(std::size_t shard) const {
  WF_CHECK(shard < 2 * base_.size(), "MappedIndex::shard_view: shard out of range");
  if (shard >= base_.size()) return tails_[shard - base_.size()].view();
  const core::RowColumns& c = base_[shard];
  return {c.data, c.sq_norms, c.class_ids, c.row_ids, c.rows};
}

void MappedIndex::probe_shards(std::span<const float> query,
                               std::vector<std::size_t>& out) const {
  WF_CHECK(query.size() == dim_, "probe_shards: query width mismatch");
  const std::size_t n = base_.size();
  detail::nearest_centroids(query.data(), centroids_, centroid_norms_.data(), n, dim_,
                            config_.probes == 0 ? n : std::min(config_.probes, n), out);
  const std::size_t picked = out.size();
  std::uint64_t rows = 0;
  for (std::size_t p = 0; p < picked; ++p) rows += base_[out[p]].rows;
  // A probed cluster's journal tail holds the rows appended to it since the
  // base was written; together they are exactly the cluster's live rows.
  for (std::size_t p = 0; p < picked; ++p)
    if (const std::size_t tail = tails_[out[p]].rows(); tail > 0) {
      out.push_back(n + out[p]);
      rows += tail;
    }
  const IndexMetrics& metrics = index_metrics();
  metrics.probes_total->inc();
  metrics.clusters_scanned->inc(picked);
  metrics.rows_scanned->inc(rows);
}

}  // namespace wf::index
