#include "io/serialize.hpp"

#include <fstream>
#include <sstream>

#include "baselines/attackers.hpp"
#include "core/adaptive.hpp"
#include "core/attacker.hpp"
#include "io/mmap.hpp"

namespace wf::io {

namespace {

constexpr char kMagic[4] = {'W', 'F', 'I', 'O'};

// Sanity bounds on deserialized shapes: anything beyond these is a corrupt
// or hostile file, rejected before any allocation can overflow.
constexpr std::uint64_t kMaxLayerWidth = std::uint64_t{1} << 20;
constexpr std::uint64_t kMaxFeatureDim = std::uint64_t{1} << 24;

void write_tag(Writer& out, const std::string& tag) {
  if (tag.size() != 4) throw IoError("internal: tag must be 4 chars");
  out.stream().write(tag.data(), 4);
  if (!out.stream()) throw IoError("write failed");
}

std::string read_tag(Reader& in) {
  char tag[4];
  in.stream().read(tag, 4);
  if (in.stream().gcount() != 4) throw IoError("unexpected end of stream");
  return std::string(tag, 4);
}

}  // namespace

namespace detail {

void write_tagged_payload(Writer& out, const std::string& tag, const std::string& payload) {
  write_tag(out, tag);
  out.u64(payload.size());
  out.stream().write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out.stream()) throw IoError("write failed");
}

std::string buffer_payload(const std::function<void(Writer&)>& body) {
  std::ostringstream buffer;
  Writer payload(buffer);
  body(payload);
  return std::move(buffer).str();
}

std::unique_ptr<std::istringstream> payload_stream(std::string payload) {
  return std::make_unique<std::istringstream>(std::move(payload));
}

void require_consumed(std::istream& payload, const std::string& tag) {
  if (payload.peek() != std::istream::traits_type::eof())
    throw IoError("trailing bytes in section " + tag);
}

}  // namespace detail

void write_header(Writer& out, const std::string& kind) {
  out.stream().write(kMagic, 4);
  if (!out.stream()) throw IoError("write failed");
  out.u32(kFormatVersion);
  write_tag(out, kind);
}

std::string read_header(Reader& in) {
  char magic[4];
  in.stream().read(magic, 4);
  if (in.stream().gcount() != 4 || std::string(magic, 4) != std::string(kMagic, 4))
    throw IoError("not a wf::io file (bad magic)");
  const std::uint32_t version = in.u32();
  if (version != kFormatVersion)
    throw IoError("unsupported format version " + std::to_string(version) + " (supported: " +
                  std::to_string(kFormatVersion) + ")");
  return read_tag(in);
}

void expect_header(Reader& in, const std::string& kind) {
  const std::string actual = read_header(in);
  if (actual != kind)
    throw IoError("expected a " + kind + " file, found " + actual);
}

std::string read_section(Reader& in, const std::string& tag) {
  const std::string actual = read_tag(in);
  if (actual != tag) throw IoError("expected section " + tag + ", found " + actual);
  const std::uint64_t size = in.u64();
  constexpr std::uint64_t kMaxSection = std::uint64_t{1} << 34;  // 16 GiB
  if (size > kMaxSection) throw IoError("corrupt section length");
  std::string payload(size, '\0');
  in.stream().read(payload.data(), static_cast<std::streamsize>(size));
  if (in.stream().gcount() != static_cast<std::streamsize>(size))
    throw IoError("unexpected end of stream in section " + tag);
  return payload;
}

void save_matrix(Writer& out, const nn::Matrix& m) {
  out.u64(m.rows());
  out.u64(m.cols());
  for (std::size_t r = 0; r < m.rows(); ++r)
    for (std::size_t c = 0; c < m.cols(); ++c) out.f32(m(r, c));
}

nn::Matrix load_matrix(Reader& in) {
  const std::uint64_t rows = in.u64();
  const std::uint64_t cols = in.u64();
  if (rows > 0 && cols > (std::uint64_t{1} << 32) / rows) throw IoError("corrupt matrix shape");
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = in.f32();
  return m;
}

nn::Matrix load_matrix(Reader& in, std::size_t rows, std::size_t cols) {
  const std::uint64_t stored_rows = in.u64();
  const std::uint64_t stored_cols = in.u64();
  if (stored_rows != rows || stored_cols != cols)
    throw IoError("matrix shape does not match its declared dimensions");
  nn::Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = in.f32();
  return m;
}

void save_mlp(Writer& out, const nn::Mlp& mlp) {
  const std::vector<std::size_t> sizes = mlp.layer_sizes();
  out.u64(sizes.size());
  for (const std::size_t s : sizes) out.u64(s);
  for (std::size_t l = 0; l < mlp.n_layers(); ++l) {
    save_matrix(out, mlp.layer_weights(l));
    out.f32_vec(mlp.layer_bias(l));
  }
}

nn::Mlp load_mlp(Reader& in) {
  const std::uint64_t n_sizes = in.u64();
  if (n_sizes < 2 || n_sizes > 64) throw IoError("corrupt MLP layer count");
  std::vector<std::size_t> sizes(n_sizes);
  for (auto& s : sizes) {
    s = in.u64();
    // Bound every width before the Mlp constructor allocates from it: a
    // corrupt size must raise IoError, not overflow rows*cols.
    if (s < 1 || s > kMaxLayerWidth) throw IoError("corrupt MLP layer width");
  }
  nn::Mlp mlp(sizes, /*seed=*/0);
  for (std::size_t l = 0; l + 1 < sizes.size(); ++l) {
    nn::Matrix w = load_matrix(in, sizes[l + 1], sizes[l]);
    std::vector<float> b = in.f32_vec();
    if (b.size() != sizes[l + 1]) throw IoError("MLP bias width does not match layer sizes");
    mlp.layer_weights(l) = std::move(w);
    mlp.layer_bias(l) = std::move(b);
  }
  return mlp;
}

void save_embedding_config(Writer& out, const core::EmbeddingConfig& config) {
  out.i32(config.n_sequences);
  out.i32(config.timesteps);
  out.u64(config.embedding_dim);
  out.u64(config.hidden.size());
  for (const std::size_t h : config.hidden) out.u64(h);
  out.i32(config.train_iterations);
  out.i32(config.batch_pairs);
  out.f64(config.learning_rate);
  out.f64(config.margin);
  out.u8(config.objective == core::Objective::kTriplet ? 1 : 0);
  out.u64(config.seed);
}

core::EmbeddingConfig load_embedding_config(Reader& in) {
  core::EmbeddingConfig config;
  config.n_sequences = in.i32();
  config.timesteps = in.i32();
  if (config.n_sequences < 1 || config.timesteps < 1 ||
      static_cast<std::uint64_t>(config.n_sequences) * config.timesteps > kMaxLayerWidth)
    throw IoError("corrupt embedding config (input shape)");
  config.embedding_dim = in.u64();
  if (config.embedding_dim < 1 || config.embedding_dim > kMaxLayerWidth)
    throw IoError("corrupt embedding config (embedding dim)");
  const std::uint64_t n_hidden = in.u64();
  if (n_hidden > 64) throw IoError("corrupt embedding config (hidden layers)");
  config.hidden.resize(n_hidden);
  for (auto& h : config.hidden) {
    h = in.u64();
    if (h < 1 || h > kMaxLayerWidth) throw IoError("corrupt embedding config (hidden width)");
  }
  config.train_iterations = in.i32();
  config.batch_pairs = in.i32();
  config.learning_rate = in.f64();
  config.margin = in.f64();
  config.objective = in.u8() == 1 ? core::Objective::kTriplet : core::Objective::kContrastive;
  config.seed = in.u64();
  return config;
}

void save_knn_k(Writer& out, int k) {
  out.i32(k);
  out.u64(1);
}

int load_knn_k(Reader& in) {
  const int k = in.i32();
  in.u64();
  if (k < 1) throw IoError("corrupt attacker k-NN parameters");
  return k;
}

void save_reference_set(Writer& out, const core::ShardedReferenceSet& refs) {
  // One table in ascending row id, each column written straight from the
  // shards: the bytes do not depend on the shard count.
  const std::vector<core::RowRef> rows = core::rows_by_id(refs);
  const std::size_t dim = refs.dim();
  out.u64(dim);
  out.u64(1);  // table count
  out.u64(refs.next_row_id());
  out.i32_vec(refs.id_to_label());
  out.u64(rows.size() * dim);
  for (const core::RowRef& row : rows)
    for (std::size_t j = 0; j < dim; ++j) out.f32(row.data[j]);
  const auto column = [&](auto write) {
    out.u64(rows.size());
    for (const core::RowRef& row : rows) write(row);
  };
  column([&](const core::RowRef& row) { out.i32(row.label); });
  column([&](const core::RowRef& row) { out.f64(row.sq_norm); });
  column([&](const core::RowRef& row) { out.i32(row.class_id); });
  column([&](const core::RowRef& row) { out.u64(row.row_id); });
}

core::ShardedReferenceSet load_reference_set(Reader& in) {
  const std::uint64_t dim = in.u64();
  if (dim > kMaxFeatureDim) throw IoError("corrupt reference-set width");
  const std::uint64_t n_tables = in.u64();
  if (n_tables == 0 || n_tables > 4096) throw IoError("corrupt reference-set table count");
  const std::uint64_t next_row_id = in.u64();
  std::vector<int> id_to_label = in.i32_vec();
  std::vector<core::RowTables> tables(n_tables);
  for (auto& table : tables) {
    const std::vector<float> data = in.f32_vec();
    table.data.assign(data.begin(), data.end());
    const std::vector<int> labels = in.i32_vec();
    table.sq_norms = in.f64_vec();
    table.class_ids = in.i32_vec();
    table.row_ids = in.u64_vec();
    // The format keeps each row's label; the tables derive it from the
    // class id, so the two must agree.
    if (labels.size() != table.class_ids.size())
      throw IoError("corrupt reference set: label and class-id columns disagree");
    for (std::size_t i = 0; i < labels.size(); ++i) {
      const int id = table.class_ids[i];
      if (id < 0 || static_cast<std::size_t>(id) >= id_to_label.size() ||
          id_to_label[static_cast<std::size_t>(id)] != labels[i])
        throw IoError("corrupt reference set: row class id does not name the row's label");
    }
  }
  try {
    return core::ShardedReferenceSet::restore(dim, next_row_id, std::move(id_to_label),
                                              std::move(tables));
  } catch (const std::invalid_argument& e) {
    throw IoError(e.what());
  }
}

void save_dataset_body(Writer& out, const data::Dataset& dataset) {
  out.u64(dataset.feature_dim());
  out.u64(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) out.i32(dataset[i].label);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const data::Sample& sample = dataset[i];
    for (const float f : sample.features) out.f32(f);
  }
}

data::Dataset load_dataset_body(Reader& in) {
  const std::uint64_t dim = in.u64();
  const std::uint64_t n = in.u64();
  if (dim > (std::uint64_t{1} << 24) || n > (std::uint64_t{1} << 32))
    throw IoError("corrupt dataset shape");
  std::vector<int> labels(n);
  for (auto& l : labels) l = in.i32();
  data::Dataset dataset(dim);
  for (std::uint64_t i = 0; i < n; ++i) {
    data::Sample sample;
    sample.label = labels[i];
    sample.features.resize(dim);
    for (auto& f : sample.features) f = in.f32();
    dataset.add(std::move(sample));
  }
  return dataset;
}

void save_dataset(const std::string& path, const data::Dataset& dataset) {
  replace_file(path, [&](std::ostream& file) {
    Writer out(file);
    write_header(out, "DATA");
    write_section(out, "CORP", [&](Writer& w) { save_dataset_body(w, dataset); });
  });
}

data::Dataset load_dataset(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw IoError("cannot open " + path);
  Reader in(file);
  expect_header(in, "DATA");
  return parse_section(in, "CORP", [](Reader& r) { return load_dataset_body(r); });
}

void save_attacker(std::ostream& stream, const core::Attacker& attacker) {
  Writer out(stream);
  write_header(out, "ATKR");
  write_section(out, "NAME", [&](Writer& w) { w.str(attacker.name()); });
  attacker.save_body(out);
}

void save_attacker(const std::string& path, const core::Attacker& attacker) {
  replace_file(path, [&](std::ostream& file) { save_attacker(file, attacker); });
}

std::string read_attacker_name(Reader& in) {
  expect_header(in, "ATKR");
  return parse_section(in, "NAME", [](Reader& r) { return r.str(); });
}

std::unique_ptr<core::Attacker> load_attacker(std::istream& stream) {
  Reader in(stream);
  const std::string name = read_attacker_name(in);
  std::unique_ptr<core::Attacker> attacker;
  try {
    attacker = baselines::make_attacker_by_name(name);
  } catch (const std::invalid_argument& e) {
    throw IoError(e.what());
  }
  attacker->load_body(in);
  return attacker;
}

std::unique_ptr<core::Attacker> load_attacker(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw IoError("cannot open " + path);
  return load_attacker(file);
}

}  // namespace wf::io
