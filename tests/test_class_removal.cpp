// Class removal (core::erase_class / remove_class_rows) in both stores.
// Removing, in turn, the class holding id 0, the class holding the last id,
// a middle class, an absent label (a no-op), a class held by a single shard
// or cell, and finally every class, then re-adding rows: after each step the
// dense id tables are consistent, a save -> load round trip (a compaction,
// for an index) is accepted, and rankings equal those of a store built
// fresh from the surviving rows. An index takes the steps through its
// journal: every open is a MappedIndex holding test::IndexOracle's rows and
// id space, ranks like the surviving rows at P = C and like a scan of
// exactly the probed clusters at P = 2, leaves the file's bytes alone, and
// ranks like its compacted file; a rebuild killed at any step never replays
// the journal onto rows the base already holds. Row and class ids past the
// packed candidate key (40 + 24 bits) are rejected by restore and add.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/knn.hpp"
#include "core/row_tables.hpp"
#include "core/sharded_reference_set.hpp"
#include "index/ivf.hpp"
#include "index/store.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "nn/matrix.hpp"
#include "test_common.hpp"
#include "util/rng.hpp"

namespace {

using namespace wf;
using test::IndexOracle;
using test::LabeledRow;
using test::read_file;
using test::temp_path;
using test::throws_io_error;
using test::write_file;

std::vector<float> random_point(util::Rng& rng, std::size_t dim, double spread = 1.0) {
  std::vector<float> v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, spread));
  return v;
}

// Clustered rows with exact duplicates, so distance ties exercise the
// (dist, row id) tie-break after rows have moved.
std::vector<LabeledRow> make_rows(util::Rng& rng, std::size_t dim, int first_label,
                                  int n_classes, int per_class) {
  std::vector<LabeledRow> rows;
  for (int c = 0; c < n_classes; ++c) {
    const std::vector<float> center = random_point(rng, dim);
    for (int s = 0; s < per_class; ++s) {
      std::vector<float> e = center;
      if (s % 3 != 0)
        for (float& x : e) x += static_cast<float>(rng.normal(0.0, 0.2));
      rows.push_back({e, first_label + c});
    }
  }
  return rows;
}

bool same_rankings(const std::vector<std::vector<core::RankedLabel>>& a,
                   const std::vector<std::vector<core::RankedLabel>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t q = 0; q < a.size(); ++q) {
    if (a[q].size() != b[q].size()) return false;
    for (std::size_t i = 0; i < a[q].size(); ++i)
      if (a[q][i].label != b[q][i].label || a[q][i].votes != b[q][i].votes ||
          a[q][i].distance != b[q][i].distance)
        return false;
  }
  return true;
}

// Dense and consistent: n_ids distinct labels, every row's class id lies in
// the id space, and every id is held by at least one row.
void check_ids(const core::ReferenceStore& store) {
  const std::size_t n_ids = store.n_class_ids();
  std::set<int> labels;
  for (std::size_t id = 0; id < n_ids; ++id) labels.insert(store.label_of_id(id));
  CHECK(labels.size() == n_ids);
  std::vector<int> held(n_ids, 0);
  std::size_t rows = 0;
  for (std::size_t s = 0; s < store.shard_count(); ++s) {
    const core::ShardView t = store.shard_view(s);
    rows += t.rows;
    for (std::size_t i = 0; i < t.rows; ++i) {
      const int id = t.class_ids[i];
      CHECK(id >= 0 && static_cast<std::size_t>(id) < n_ids);
      if (id < 0 || static_cast<std::size_t>(id) >= n_ids) continue;
      ++held[static_cast<std::size_t>(id)];
    }
  }
  CHECK(rows == store.size());
  CHECK(std::count(held.begin(), held.end(), 0) == 0);
}

// The rows of `live` (surviving rows in insertion order), indexed fresh.
core::ShardedReferenceSet fresh_store(const std::vector<LabeledRow>& live, std::size_t dim) {
  core::ShardedReferenceSet out(dim, 1);
  for (const LabeledRow& r : live) out.add(r.embedding, r.label);
  return out;
}

std::vector<LabeledRow> without(const std::vector<LabeledRow>& live, int label) {
  std::vector<LabeledRow> out;
  for (const LabeledRow& r : live)
    if (r.label != label) out.push_back(r);
  return out;
}

// The removal sequence, shared by both stores: `remove(label)` and
// `add(row)` mutate the store under test, `current()` is its state after
// the last step, and `check(live)` compares it with the surviving rows
// after each step.
void run_removal_sequence(const std::vector<LabeledRow>& rows, int single_label,
                          const std::vector<LabeledRow>& readd,
                          const std::function<const core::ReferenceStore&()>& current,
                          const std::function<void(int)>& remove,
                          const std::function<void(const LabeledRow&)>& add,
                          const std::function<void(const std::vector<LabeledRow>&)>& check) {
  std::vector<LabeledRow> live = rows;
  check(live);
  const auto remove_label = [&](int label) {
    remove(label);
    live = without(live, label);
    check(live);
  };
  remove_label(current().label_of_id(0));
  remove_label(current().label_of_id(current().n_class_ids() - 1));
  const int middle = current().label_of_id(current().n_class_ids() / 2 - 1);
  CHECK(middle != single_label);
  remove_label(middle);
  {
    const std::size_t size = current().size();
    std::vector<int> ids;
    for (std::size_t id = 0; id < current().n_class_ids(); ++id)
      ids.push_back(current().label_of_id(id));
    remove(123456);  // absent: nothing moves
    CHECK(current().size() == size);
    for (std::size_t id = 0; id < ids.size() && id < current().n_class_ids(); ++id)
      CHECK(current().label_of_id(id) == ids[id]);
    check(live);
  }
  remove_label(single_label);
  while (current().n_class_ids() > 0)
    remove_label(current().label_of_id(current().n_class_ids() / 3));
  CHECK(current().size() == 0 && live.empty());
  for (const LabeledRow& r : readd) {
    add(r);
    live.push_back(r);
  }
  check(live);
}

}  // namespace

int main() {
  util::Rng rng(4711);
  const std::size_t dim = 10;
  std::vector<LabeledRow> rows = make_rows(rng, dim, 300, 9, 11);
  const int single_label = 299;  // one row: one shard, one cell
  rows.insert(rows.begin() + 40, {random_point(rng, dim), single_label});
  // Re-adds after the store emptied: a label seen before and a new one.
  std::vector<LabeledRow> readd = make_rows(rng, dim, 304, 2, 5);
  for (LabeledRow& r : make_rows(rng, dim, 900, 1, 4)) readd.push_back(r);

  nn::Matrix queries(21, dim);
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    std::vector<float> v = q % 4 == 0 ? random_point(rng, dim, 2.0) : rows[q * 5].embedding;
    if (q % 4 != 0)
      for (float& x : v) x += static_cast<float>(rng.normal(0.0, 0.05));
    queries.set_row(q, v);
  }
  const core::KnnClassifier knn(9);

  // --- ShardedReferenceSet -------------------------------------------------
  for (const std::size_t n_shards : {std::size_t{1}, std::size_t{3}}) {
    core::ShardedReferenceSet store(dim, n_shards);
    for (const LabeledRow& r : rows) store.add(r.embedding, r.label);
    const auto check = [&](const std::vector<LabeledRow>& live) {
      check_ids(store);
      const auto want = knn.rank_batch(fresh_store(live, dim), queries);
      CHECK(same_rankings(knn.rank_batch(store, queries), want));
      // Save -> load goes through ShardedReferenceSet::restore.
      std::stringstream buf;
      io::Writer w(buf);
      io::save_reference_set(w, store);
      io::Reader r(buf);
      const core::ShardedReferenceSet loaded = io::load_reference_set(r);
      CHECK(loaded.size() == store.size());
      CHECK(same_rankings(knn.rank_batch(loaded, queries), want));
    };
    run_removal_sequence(
        rows, single_label, readd, [&]() -> const core::ReferenceStore& { return store; },
        [&](int label) { store.remove_class(label); },
        [&](const LabeledRow& r) { store.add(r.embedding, r.label); }, check);
  }

  // --- MappedIndex at P = C, through its journal ------------------------------
  // Each step is appended to the journal and the file reopened; a
  // compaction of a copy of base + journal must rank the same.
  for (const std::size_t clusters : {std::size_t{1}, std::size_t{4}}) {
    core::ShardedReferenceSet base(dim, 2);
    for (const LabeledRow& r : rows) base.add(r.embedding, r.label);
    index::IvfConfig config;
    config.clusters = clusters;
    const test::TempIndex index(base, config, "wf_test_class_removal_steps.wfx");
    IndexOracle oracle(index.build);
    index::IndexJournalWriter journal(index.path);
    std::unique_ptr<index::MappedIndex> opened = index.reopen();
    const std::string copy = temp_path("wf_test_class_removal_steps_copy.wfx");
    const auto check = [&](const std::vector<LabeledRow>& live) {
      check_ids(*opened);
      oracle.check(*opened);
      const auto want = knn.rank_batch(fresh_store(live, dim), queries);
      CHECK(same_rankings(knn.rank_batch(*opened, queries), want));
      write_file(copy, read_file(index.path));
      write_file(copy + ".journal", read_file(journal.journal_path()));
      CHECK(index::rebuild_index_file(copy) == live.size());
      CHECK(same_rankings(knn.rank_batch(*index::open_index(copy), queries), want));
    };
    run_removal_sequence(
        rows, single_label, readd, [&]() -> const core::ReferenceStore& { return *opened; },
        [&](int label) {
          journal.remove_class(label);
          oracle.remove_class(label);
          opened = index.reopen();
        },
        [&](const LabeledRow& r) {
          journal.add(r.embedding, r.label);
          oracle.add(r.embedding, r.label);
          opened = index.reopen();
        },
        check);
    std::filesystem::remove(copy);
  }

  // --- journal churn: one replay onto the mapped index -----------------------
  // Every open of the journaled file must be a MappedIndex with the
  // oracle's rows and id space, rank like the surviving rows at P = C, and
  // at P = 2 probe the two nearest clusters and rank like a scan of them.
  {
    core::ShardedReferenceSet base(dim, 2);
    for (const LabeledRow& r : rows) base.add(r.embedding, r.label);
    index::IvfConfig config;
    config.clusters = 4;
    const test::TempIndex index(base, config, "wf_test_class_removal.wfx");
    const std::string& path = index.path;
    const std::string pristine = read_file(path);
    IndexOracle oracle(index.build);
    index::IndexJournalWriter journal(path);

    const auto open_checked = [&](std::size_t probes) {
      std::unique_ptr<core::ReferenceStore> opened = index::open_index(path, probes);
      CHECK(dynamic_cast<const index::MappedIndex*>(opened.get()) != nullptr);
      oracle.check(*opened);
      return opened;
    };
    const auto check = [&] {
      const auto exact = open_checked(0);
      CHECK(same_rankings(knn.rank_batch(*exact, queries),
                          knn.rank_batch(fresh_store(oracle.live(), dim), queries)));
      const auto pruned = open_checked(2);
      oracle.check_probes(*pruned, queries, 2);
      test::check_pruned_against_oracle(*pruned, knn, queries, {});
      // Removals replay onto a copy-on-write view: the file never changes.
      CHECK(read_file(path) == pristine);
    };
    const auto remove = [&](int label) {
      journal.remove_class(label);
      oracle.remove_class(label);
      check();
    };
    const auto add = [&](const LabeledRow& r) {
      journal.add(r.embedding, r.label);
      oracle.add(r.embedding, r.label);
    };

    check();
    remove(oracle.ids().label_of(0));                        // base id 0
    remove(oracle.ids().label_of(oracle.ids().size() - 1));  // base's last id
    for (const LabeledRow& r : readd) add(r);                // 900: journal tails only
    check();
    CHECK(oracle.ids().label_of(oracle.ids().size() - 1) == 900);
    remove(oracle.ids().label_of(0));  // the tail-only class takes over id 0
    remove(900);                       // rows only in journal tails
    remove(305);                       // base and tail rows, then re-added
    for (const LabeledRow& r : make_rows(rng, dim, 305, 1, 4)) add(r);
    check();
    remove(single_label);

    for (const std::size_t probes : {std::size_t{0}, std::size_t{2}}) {
      const std::unique_ptr<core::ReferenceStore> churned = open_checked(probes);
      for (const int k : {0, 1, 9, 1000})
        test::check_depth_prefixes(core::KnnClassifier(k), *churned, queries);
    }

    // --- a rebuild killed at every step ---------------------------------------
    // rebuild_index_file writes <path>.tmp, renames it over <path>, then
    // deletes the journal. The compacted bytes come from a rebuild of a copy.
    const std::string journal_bytes = read_file(journal.journal_path());
    const std::string copy = temp_path("wf_test_class_removal_copy.wfx");
    write_file(copy, pristine);
    write_file(copy + ".journal", journal_bytes);
    CHECK(index::rebuild_index_file(copy) == oracle.size());
    const std::string compacted = read_file(copy);
    std::filesystem::remove(copy);
    const auto want = knn.rank_batch(fresh_store(oracle.live(), dim), queries);

    // Killed before the rename: the pre-rebuild state, and a rerun completes.
    write_file(path + ".tmp", compacted);
    {
      const std::unique_ptr<core::ReferenceStore> opened = open_checked(0);
      CHECK(same_rankings(knn.rank_batch(*opened, queries), want));
    }
    CHECK(index::rebuild_index_file(path) == oracle.size());
    CHECK(read_file(path) == compacted);
    CHECK(!std::filesystem::exists(path + ".tmp"));
    CHECK(!std::filesystem::exists(journal.journal_path()));

    // Killed after the rename, before the journal delete: its adds are in
    // the base already, so every reader refuses rather than duplicate rows.
    write_file(journal.journal_path(), journal_bytes);
    CHECK(throws_io_error([&] { index::open_index(path); }));
    CHECK(throws_io_error([&] { index::rebuild_index_file(path); }));
    CHECK(read_file(path) == compacted);
    CHECK(read_file(journal.journal_path()) == journal_bytes);

    // Killed after the journal delete: the compacted state.
    std::filesystem::remove(journal.journal_path());
    const std::unique_ptr<core::ReferenceStore> done = index::open_index(path);
    CHECK(dynamic_cast<const index::MappedIndex*>(done.get()) != nullptr);
    CHECK(done->size() == oracle.size());
    CHECK(same_rankings(knn.rank_batch(*done, queries), want));
  }

  // --- candidate-key limits: row ids below 2^40 ------------------------------
  {
    core::ShardedReferenceSet small(dim, 2);
    for (std::size_t i = 0; i < 6; ++i) small.add(rows[i].embedding, rows[i].label);
    const auto tables = [&] {
      return std::vector<core::RowTables>{small.shard_tables(0), small.shard_tables(1)};
    };
    const auto throws_invalid = [](const std::function<void()>& fn) {
      try {
        fn();
      } catch (const std::invalid_argument&) {
        return true;
      }
      return false;
    };
    CHECK(throws_invalid([&] {
      core::ShardedReferenceSet::restore(dim, core::kMaxRowIds + 1, small.id_to_label(),
                                         tables());
    }));
    // A row id of 2^40 would shift out of the packed key onto row 0's.
    std::vector<core::RowTables> forged = tables();
    forged[1].row_ids[0] = core::kMaxRowIds;
    CHECK(throws_invalid([&] {
      core::ShardedReferenceSet::restore(dim, core::kMaxRowIds + 1, small.id_to_label(), forged);
    }));
    // A repeated label would make two class ids share one class.
    std::vector<int> repeated = small.id_to_label();
    repeated.push_back(repeated.front());
    CHECK(throws_invalid(
        [&] { core::ShardedReferenceSet::restore(dim, 6, repeated, tables()); }));
    // The last valid id is accepted; adding past it is not.
    core::ShardedReferenceSet full =
        core::ShardedReferenceSet::restore(dim, core::kMaxRowIds, small.id_to_label(), tables());
    CHECK(full.size() == small.size());
    CHECK(throws_invalid([&] { full.add(rows[0].embedding, rows[0].label); }));
    CHECK(full.size() == small.size());
  }

  return TEST_MAIN_RESULT();
}
