// wf::io round trips: a trained attacker saved and reloaded must
// reproduce every ranking bit-identically (labels, votes, distances) and
// the open-world calibration exactly; corrupt, truncated, wrong-kind and
// future-version files must raise clean IoError.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/attackers.hpp"
#include "core/adaptive.hpp"
#include "core/openworld.hpp"
#include "data/build.hpp"
#include "data/splits.hpp"
#include "index/ivf.hpp"
#include "index/store.hpp"
#include "io/serialize.hpp"
#include "netsim/browser.hpp"
#include "test_common.hpp"
#include "util/env.hpp"

using namespace wf;

namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

bool rankings_equal(const std::vector<std::vector<core::RankedLabel>>& a,
                    const std::vector<std::vector<core::RankedLabel>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t r = 0; r < a[i].size(); ++r) {
      if (a[i][r].label != b[i][r].label || a[i][r].votes != b[i][r].votes ||
          a[i][r].distance != b[i][r].distance)
        return false;
    }
  }
  return true;
}

// Writes its first section, then fails: a save that dies mid-file.
class FailingAttacker final : public core::Attacker {
 public:
  std::string name() const override { return "adaptive"; }
  core::TrainStats train(const data::Dataset&) override { return {}; }
  void set_references(const data::Dataset&) override {}
  std::vector<std::vector<core::RankedLabel>> fingerprint_batch(
      const data::Dataset&) const override {
    return {};
  }
  void adapt(int, const data::Dataset&) override {}
  std::vector<int> target_classes() const override { return {}; }
  std::unique_ptr<core::Attacker> clone() const override {
    return std::make_unique<FailingAttacker>(*this);
  }
  void save_body(io::Writer& out) const override {
    io::write_section(out, "CONF", [](io::Writer& w) {
      io::save_embedding_config(w, core::EmbeddingConfig{});
    });
    throw std::runtime_error("save interrupted");
  }
  void load_body(io::Reader&) override {}
};

using test::read_file;
using test::throws_io_error;
using test::write_file;

}  // namespace

int main() {
  // Small world: 12 pages x 12 loads, 8 train / 4 test per class.
  netsim::WikiSiteConfig site_config;
  site_config.n_pages = 12;
  site_config.seed = 31;
  const netsim::Website site = netsim::make_wiki_site(site_config);
  const netsim::ServerFarm farm = netsim::ServerFarm::for_wiki();
  data::DatasetBuildOptions crawl;
  crawl.samples_per_class = 12;
  crawl.seed = 77;
  const data::Dataset dataset = data::build_dataset(site, farm, {}, crawl);
  const data::SampleSplit split = data::split_samples(dataset, 8, 5);

  // --- Dataset round trip -------------------------------------------------
  {
    const std::string path = temp_path("wf_test_dataset.bin");
    io::save_dataset(path, dataset);
    const data::Dataset loaded = io::load_dataset(path);
    CHECK(loaded.size() == dataset.size());
    CHECK(loaded.feature_dim() == dataset.feature_dim());
    bool identical = true;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      if (loaded[i].label != dataset[i].label ||
          loaded[i].features != dataset[i].features)
        identical = false;
    }
    CHECK(identical);
    std::remove(path.c_str());
  }

  // --- Adaptive attacker round trip ---------------------------------------
  core::EmbeddingConfig config;
  config.train_iterations = 120;
  core::AdaptiveFingerprinter attacker(config, /*knn_k=*/10, /*n_shards=*/3);
  attacker.train(split.first);
  const auto before = attacker.fingerprint_batch(split.second);
  const std::string model_path = temp_path("wf_test_adaptive.wf");
  attacker.save(model_path);

  {
    // Typed reload through Attacker::load.
    core::AdaptiveFingerprinter reloaded;
    reloaded.load(model_path);
    CHECK(rankings_equal(before, reloaded.fingerprint_batch(split.second)));
    CHECK(reloaded.references().size() == attacker.references().size());
    // The file holds no shard layout: a load deals the rows into the
    // reader's own default_shard_count() shards.
    CHECK(reloaded.references().shard_count() ==
          core::ShardedReferenceSet::default_shard_count());

    // The embeddings themselves are bit-identical, so the §VI-C open-world
    // calibration lands on the exact same threshold.
    const nn::Matrix ref_embeddings = attacker.model().embed_dataset(split.first);
    const nn::Matrix loaded_embeddings = reloaded.model().embed_dataset(split.first);
    CHECK(ref_embeddings.rows() == loaded_embeddings.rows());
    bool embeddings_identical = true;
    for (std::size_t r = 0; r < ref_embeddings.rows(); ++r)
      for (std::size_t c = 0; c < ref_embeddings.cols(); ++c)
        if (ref_embeddings(r, c) != loaded_embeddings(r, c)) embeddings_identical = false;
    CHECK(embeddings_identical);

    core::OpenWorldDetector original_detector({.neighbour = 3, .target_tpr = 0.9});
    original_detector.calibrate(attacker.references(), ref_embeddings);
    core::OpenWorldDetector loaded_detector({.neighbour = 3, .target_tpr = 0.9});
    loaded_detector.calibrate(reloaded.references(), loaded_embeddings);
    CHECK(original_detector.threshold() == loaded_detector.threshold());
    const std::vector<double> original_dists =
        original_detector.kth_distances(attacker.references(), ref_embeddings);
    const std::vector<double> loaded_dists =
        loaded_detector.kth_distances(reloaded.references(), loaded_embeddings);
    CHECK(original_dists == loaded_dists);
  }

  {
    // Polymorphic reload through io::load_attacker.
    const std::unique_ptr<core::Attacker> reloaded = io::load_attacker(model_path);
    CHECK(reloaded->name() == "adaptive");
    CHECK(rankings_equal(before, reloaded->fingerprint_batch(split.second)));
    // A reloaded attacker adapts exactly like the original (the trained
    // model travels with the file).
    core::AdaptiveFingerprinter twin;
    twin.load(model_path);
    reloaded->adapt(3, split.second);
    twin.adapt_class(3, split.second);
    CHECK(rankings_equal(reloaded->fingerprint_batch(split.second),
                         twin.fingerprint_batch(split.second)));
  }

  // --- Model bytes do not depend on the shard layout -----------------------
  {
    // The same adds, removals and re-adds under any shard count save to the
    // same bytes: one table in row-id order, ids and class ids unchanged.
    const nn::Matrix embedded = attacker.model().embed_dataset(split.first);
    const nn::Matrix fresh = attacker.model().embed_dataset(split.second);
    const std::vector<int> fresh_labels = split.second.labels_of();
    std::vector<std::string> saved;
    for (const std::size_t n_shards : {std::size_t{1}, std::size_t{3}, std::size_t{7}}) {
      core::ShardedReferenceSet refs(embedded.cols(), n_shards);
      refs.add_all(embedded, split.first.labels_of());
      for (const int label : {3, 0}) {
        refs.remove_class(label);
        for (std::size_t i = 0; i < fresh.rows(); ++i)
          if (fresh_labels[i] == label) refs.add(fresh.row_span(i), label);
      }
      std::stringstream out;
      io::Writer w(out);
      io::save_reference_set(w, refs);
      saved.push_back(out.str());
    }
    CHECK(saved[0] == saved[1]);
    CHECK(saved[0] == saved[2]);
  }
  {
    // A load honours the reader's shard count, ranks bit-identically, and
    // saves back to the very same bytes.
    const std::size_t previous_shards = util::Env::shards();
    util::Env::override_shards(5);
    core::AdaptiveFingerprinter reloaded;
    reloaded.load(model_path);
    CHECK(reloaded.references().shard_count() == 5);
    CHECK(rankings_equal(before, reloaded.fingerprint_batch(split.second)));
    std::stringstream resaved;
    io::save_attacker(resaved, reloaded);
    CHECK(resaved.str() == read_file(model_path));
    util::Env::override_shards(previous_shards);
  }
  {
    // A file of an earlier build, with one table per shard (not in row-id
    // order after a class swap) and KNNC's shard count 3, still loads and
    // ranks identically, and saves back in the one-table layout.
    core::AdaptiveFingerprinter adapted = attacker;
    adapted.adapt_class(3, split.second);
    const core::ShardedReferenceSet& refs = adapted.references();
    CHECK(refs.shard_count() == 3);
    std::stringstream legacy;
    io::Writer w(legacy);
    io::write_header(w, "ATKR");
    io::write_section(w, "NAME", [](io::Writer& s) { s.str("adaptive"); });
    io::write_section(w, "CONF", [&](io::Writer& s) {
      io::save_embedding_config(s, adapted.model().config());
    });
    io::write_section(w, "KNNC", [&](io::Writer& s) {
      s.i32(adapted.classifier().k());
      s.u64(refs.shard_count());
    });
    io::write_section(w, "MLPW", [&](io::Writer& s) { io::save_mlp(s, adapted.model().net()); });
    io::write_section(w, "REFS", [&](io::Writer& s) {
      s.u64(refs.dim());
      s.u64(refs.shard_count());
      s.u64(refs.next_row_id());
      s.i32_vec(refs.id_to_label());
      for (std::size_t shard = 0; shard < refs.shard_count(); ++shard) {
        const core::RowTables& table = refs.shard_tables(shard);
        s.f32_vec(table.data);
        std::vector<int> labels;
        for (const int id : table.class_ids)
          labels.push_back(refs.label_of_id(static_cast<std::size_t>(id)));
        s.i32_vec(labels);
        s.f64_vec(table.sq_norms);
        s.i32_vec(table.class_ids);
        s.u64_vec(table.row_ids);
      }
    });
    const std::unique_ptr<core::Attacker> loaded = io::load_attacker(legacy);
    CHECK(rankings_equal(adapted.fingerprint_batch(split.second),
                         loaded->fingerprint_batch(split.second)));
    std::stringstream current;
    std::stringstream resaved;
    io::save_attacker(current, adapted);
    io::save_attacker(resaved, *loaded);
    CHECK(resaved.str() == current.str());
  }

  // --- A failed save leaves the previous file intact ----------------------
  {
    const std::string previous = read_file(model_path);
    bool interrupted = false;
    try {
      FailingAttacker().save(model_path);
    } catch (const std::runtime_error&) {
      interrupted = true;
    }
    CHECK(interrupted);
    CHECK(read_file(model_path) == previous);
    CHECK(!std::filesystem::exists(model_path + ".tmp"));
  }

  // --- Baseline attacker round trips --------------------------------------
  {
    baselines::ForestAttacker forest({.n_trees = 12, .max_depth = 8});
    forest.train(split.first);
    const auto forest_before = forest.fingerprint_batch(split.second);
    const std::string path = temp_path("wf_test_forest.wf");
    forest.save(path);
    const std::unique_ptr<core::Attacker> reloaded = io::load_attacker(path);
    CHECK(reloaded->name() == "forest");
    CHECK(rankings_equal(forest_before, reloaded->fingerprint_batch(split.second)));
    test::check_fingerprint_is_batch_row(forest, split.second);
    // adapt() refits from the retained corpus; reloaded must behave the same.
    baselines::ForestAttacker twin;
    twin.load(path);
    reloaded->adapt(1, split.second);
    twin.adapt(1, split.second);
    CHECK(rankings_equal(reloaded->fingerprint_batch(split.second),
                         twin.fingerprint_batch(split.second)));
    std::remove(path.c_str());
  }
  {
    baselines::FeatureKnnAttacker kfp(/*k=*/7, /*n_shards=*/2);
    kfp.train(split.first);
    const auto kfp_before = kfp.fingerprint_batch(split.second);
    const std::string path = temp_path("wf_test_kfp.wf");
    kfp.save(path);
    const std::unique_ptr<core::Attacker> reloaded = io::load_attacker(path);
    CHECK(reloaded->name() == "kfp-knn");
    CHECK(rankings_equal(kfp_before, reloaded->fingerprint_batch(split.second)));
    test::check_fingerprint_is_batch_row(kfp, split.second);
    std::remove(path.c_str());
  }

  // --- Error paths ---------------------------------------------------------
  const std::string valid = read_file(model_path);
  CHECK(valid.size() > 64);

  // Missing file.
  CHECK(throws_io_error([&] { io::load_attacker(temp_path("wf_test_missing.wf")); }));

  // Bad magic.
  {
    const std::string path = temp_path("wf_test_magic.wf");
    std::string bytes = valid;
    bytes[0] = 'X';
    write_file(path, bytes);
    CHECK(throws_io_error([&] { io::load_attacker(path); }));
    std::remove(path.c_str());
  }

  // Future format version: the error must name the version.
  {
    const std::string path = temp_path("wf_test_version.wf");
    std::string bytes = valid;
    bytes[4] = 99;  // little-endian u32 version at offset 4
    write_file(path, bytes);
    bool version_named = false;
    try {
      io::load_attacker(path);
    } catch (const io::IoError& e) {
      version_named = std::string(e.what()).find("version 99") != std::string::npos;
    }
    CHECK(version_named);
    std::remove(path.c_str());
  }

  // Truncation at several depths.
  for (const std::size_t keep : {std::size_t{6}, std::size_t{20}, valid.size() / 2}) {
    const std::string path = temp_path("wf_test_truncated.wf");
    write_file(path, valid.substr(0, keep));
    CHECK(throws_io_error([&] { io::load_attacker(path); }));
    std::remove(path.c_str());
  }

  // Wrong kind: a dataset file is not an attacker, and vice versa.
  {
    const std::string path = temp_path("wf_test_kind.bin");
    io::save_dataset(path, split.first);
    CHECK(throws_io_error([&] { io::load_attacker(path); }));
    CHECK(throws_io_error([&] {
      core::AdaptiveFingerprinter wrong;
      wrong.load(path);
    }));
    std::remove(path.c_str());
  }

  // Wrong attacker type through the typed loader.
  {
    baselines::ForestAttacker wrong;
    CHECK(throws_io_error([&] { wrong.load(model_path); }));
  }

  // Trailing bytes inside a section payload mean corruption or
  // writer/reader drift; the framing must reject them.
  {
    const std::string path = temp_path("wf_test_trailing.wf");
    {
      std::ofstream out(path, std::ios::binary);
      io::Writer w(out);
      io::write_header(w, "ATKR");
      io::write_section(w, "NAME", [](io::Writer& s) {
        s.str("adaptive");
        s.u8(0);  // surplus byte after the name
      });
    }
    CHECK(throws_io_error([&] { io::load_attacker(path); }));
    std::remove(path.c_str());
  }

  // Hostile shapes: a crafted MLP section with 2^32-wide layers must raise
  // IoError before any allocation can overflow.
  {
    const std::string path = temp_path("wf_test_hostile.wf");
    {
      std::ofstream out(path, std::ios::binary);
      io::Writer w(out);
      io::write_header(w, "ATKR");
      io::write_section(w, "NAME", [](io::Writer& s) { s.str("adaptive"); });
      io::write_section(w, "CONF", [](io::Writer& s) {
        io::save_embedding_config(s, core::EmbeddingConfig{});
      });
      io::write_section(w, "KNNC", [](io::Writer& s) {
        s.i32(10);
        s.u64(1);
      });
      io::write_section(w, "MLPW", [](io::Writer& s) {
        s.u64(2);
        s.u64(std::uint64_t{1} << 32);
        s.u64(std::uint64_t{1} << 32);
      });
    }
    CHECK(throws_io_error([&] { io::load_attacker(path); }));
    std::remove(path.c_str());
  }

  // --- REFS rows keep a label that must name the row's class id ------------
  {
    const core::ShardedReferenceSet& refs = attacker.references();
    CHECK(refs.size() > 0);
    std::stringstream saved;
    io::Writer w(saved);
    io::save_reference_set(w, refs);
    std::string bytes = saved.str();
    // dim, table count and next_row_id, the id table, then the one table's
    // data and its label column (each vector is a u64 count + elements).
    const std::size_t first_label =
        24 + 8 + 4 * refs.id_to_label().size() + 8 + 4 * refs.size() * refs.dim() + 8;
    bytes[first_label] = static_cast<char>(bytes[first_label] ^ 1);
    std::stringstream forged(bytes);
    io::Reader r(forged);
    CHECK(throws_io_error([&] { io::load_reference_set(r); }));
  }

  // --- REFS row ids must not repeat ----------------------------------------
  // Candidate keys (distance, row id) are unique by contract: a payload
  // whose last row takes row id 3 as well (all ids below next_row_id 5) is
  // refused, while the unforged payload loads.
  {
    core::ShardedReferenceSet refs(4, 2);
    for (int i = 0; i < 5; ++i) refs.add(std::vector<float>(4, static_cast<float>(i)), 60 + i);
    std::stringstream saved;
    io::Writer w(saved);
    io::save_reference_set(w, refs);
    std::string bytes = saved.str();
    {
      std::stringstream valid(bytes);
      io::Reader r(valid);
      CHECK(io::load_reference_set(r).size() == 5);
    }
    // The row-id column comes last: the final u64 is the last row's id.
    CHECK(static_cast<unsigned char>(bytes[bytes.size() - 8]) == 4);
    bytes[bytes.size() - 8] = 3;
    std::stringstream forged(bytes);
    io::Reader r(forged);
    CHECK(throws_io_error([&] { io::load_reference_set(r); }));
  }

  // --- IVF index file (wf::index base-store format) ------------------------
  {
    const std::string path = temp_path("wf_test_index_roundtrip.wfx");
    index::IvfConfig ivf_config;
    ivf_config.clusters = 4;
    const index::IvfReferenceStore built(attacker.references(), ivf_config);
    index::write_index_file(path, built);

    const std::string valid_index = read_file(path);
    CHECK(valid_index.size() > 104);

    // Rebuild of a journal-free copy: the mapped open is lossless and the
    // clustering a function of the rows, so compaction reproduces the file
    // byte for byte, which pins every table (ids, norms, centroids) and the
    // header (next_row_id, the fixed k-means fields) bit for bit.
    {
      const std::string copy = temp_path("wf_test_index_rebuilt.wfx");
      write_file(copy, valid_index);
      CHECK(index::rebuild_index_file(copy) == built.size());
      CHECK(read_file(copy) == valid_index);
      std::remove(copy.c_str());
    }

    // Bad magic.
    {
      std::string bytes = valid_index;
      bytes[0] = 'X';
      write_file(path, bytes);
      CHECK(throws_io_error([&] { index::open_index(path); }));
      CHECK(throws_io_error([&] { index::read_index_info(path); }));
    }

    // Future format version: the error must name the version.
    {
      std::string bytes = valid_index;
      bytes[4] = 99;
      write_file(path, bytes);
      bool version_named = false;
      try {
        index::open_index(path);
      } catch (const io::IoError& e) {
        version_named = std::string(e.what()).find("version 99") != std::string::npos;
      }
      CHECK(version_named);
    }

    // Future index layout version (the u32 after the "IVFX" kind tag).
    {
      std::string bytes = valid_index;
      bytes[12] = 99;
      write_file(path, bytes);
      CHECK(throws_io_error([&] { index::open_index(path); }));
    }

    // Ids past the packed candidate key (40-bit row ids): next_row_id =
    // 2^40 + 1 with row_ids[0] = 2^40 passes "row id < next_row_id", but the
    // row's key would collide with row 0's, so the header is rejected.
    const auto put_u64 = [](std::string& bytes, std::size_t at, std::uint64_t v) {
      for (std::size_t i = 0; i < 8; ++i) bytes[at + i] = static_cast<char>(v >> (8 * i));
    };
    {
      std::string bytes = valid_index;
      put_u64(bytes, 40, core::kMaxRowIds + 1);  // header: next_row_id
      // row_ids is the file's last array.
      put_u64(bytes, bytes.size() - 8 * built.size(), core::kMaxRowIds);
      write_file(path, bytes);
      CHECK(throws_io_error([&] { index::open_index(path); }));
      CHECK(throws_io_error([&] { index::read_index_info(path); }));
    }
    // The same id in a journal add record (after the 32-byte journal header:
    // u8 kind, u64 cluster, i32 label, then the u64 row id at byte 45).
    {
      write_file(path, valid_index);
      index::IndexJournalWriter(path).add(std::vector<float>(built.dim(), 0.5f), 77);
      std::string journal = read_file(path + ".journal");
      put_u64(journal, 45, core::kMaxRowIds);
      write_file(path + ".journal", journal);
      CHECK(throws_io_error([&] { index::open_index(path); }));
      std::remove((path + ".journal").c_str());
    }
    // Add row ids start at the header's next_row_id and strictly increase: a
    // journal whose second add repeats the first's id, or whose first add
    // lies below next_row_id (rows the base already holds), is refused by
    // every reader.
    {
      write_file(path, valid_index);
      {
        index::IndexJournalWriter writer(path);
        writer.add(std::vector<float>(built.dim(), 0.5f), 77);
        writer.add(std::vector<float>(built.dim(), 0.25f), 78);
      }
      const std::string journal = read_file(path + ".journal");
      const std::size_t record = 1 + 8 + 4 + 8 + 8 + 4 * built.dim();
      const std::uint64_t first_id = built.next_row_id();
      for (const auto& [at, id] : {std::pair{45 + record, first_id},
                                   std::pair{std::size_t{45}, first_id - 1}}) {
        std::string forged = journal;
        put_u64(forged, at, id);
        write_file(path + ".journal", forged);
        CHECK(throws_io_error([&] { index::open_index(path); }));
        CHECK(throws_io_error([&] { index::read_index_info(path); }));
        CHECK(throws_io_error([&] { index::IndexJournalWriter{path}; }));
        CHECK(throws_io_error([&] { index::rebuild_index_file(path); }));
      }
      write_file(path + ".journal", journal);
      CHECK(index::open_index(path)->size() == built.size() + 2);
      std::remove((path + ".journal").c_str());
    }

    // Wrong kind: an attacker file is not an index, and an index file is
    // not an attacker.
    CHECK(throws_io_error([&] { index::open_index(model_path); }));
    write_file(path, valid_index);
    CHECK(throws_io_error([&] { io::load_attacker(path); }));

    // Truncation at several depths: header, tables, and one byte short.
    for (const std::size_t keep :
         {std::size_t{6}, std::size_t{60}, valid_index.size() / 2, valid_index.size() - 1}) {
      write_file(path, valid_index.substr(0, keep));
      CHECK(throws_io_error([&] { index::open_index(path); }));
    }

    // A corrupt journal poisons the open the same way.
    {
      write_file(path, valid_index);
      write_file(path + ".journal", "WFIOgarbage");
      CHECK(throws_io_error([&] { index::open_index(path); }));
      std::remove((path + ".journal").c_str());
    }

    std::remove(path.c_str());
  }

  std::remove(model_path.c_str());
  return TEST_MAIN_RESULT();
}
