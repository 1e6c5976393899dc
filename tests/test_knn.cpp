// KnnClassifier ranking on a hand-built reference set.
#include "core/knn.hpp"

#include "core/sharded_reference_set.hpp"
#include "test_common.hpp"

int main() {
  using namespace wf;

  // Three classes clustered at distinct corners of the plane, 4 refs each.
  core::ShardedReferenceSet refs(2);
  const auto add_cluster = [&](int label, float cx, float cy) {
    const float offsets[4][2] = {{0.0f, 0.0f}, {0.05f, 0.0f}, {0.0f, 0.05f}, {-0.05f, -0.05f}};
    for (const auto& o : offsets) {
      const std::vector<float> e = {cx + o[0], cy + o[1]};
      refs.add(e, label);
    }
  };
  add_cluster(7, 0.0f, 0.0f);
  add_cluster(8, 1.0f, 0.0f);
  add_cluster(9, 0.0f, 1.0f);
  CHECK(refs.size() == 12);
  CHECK(refs.classes() == std::vector<int>({7, 8, 9}));

  const core::KnnClassifier knn(4);
  const std::vector<float> near7 = {0.02f, 0.01f};
  const std::vector<core::RankedLabel> ranking = knn.rank(refs, near7);

  // Full ranking over all classes; the local cluster takes all k votes.
  CHECK(ranking.size() == 3);
  CHECK(ranking.front().label == 7);
  CHECK(ranking.front().votes == 4);
  CHECK(ranking[1].votes == 0 && ranking[2].votes == 0);
  // Zero-vote classes are ordered by nearest-reference distance: 8 and 9
  // are symmetric here, so just check both appear.
  CHECK((ranking[1].label == 8 && ranking[2].label == 9) ||
        (ranking[1].label == 9 && ranking[2].label == 8));

  // A query between clusters 8 and 9 but closer to 8.
  const std::vector<float> between = {0.7f, 0.3f};
  const std::vector<core::RankedLabel> r2 = knn.rank(refs, between);
  CHECK(r2.front().label == 8);

  // k larger than the reference set degrades gracefully.
  const core::KnnClassifier big_k(1000);
  const std::vector<core::RankedLabel> r3 = big_k.rank(refs, near7);
  CHECK(r3.size() == 3);
  int total_votes = 0;
  for (const auto& r : r3) total_votes += r.votes;
  CHECK(total_votes == 12);
  CHECK(r3.front().label == 7);  // tie on votes broken by distance

  // remove_class drops a class from future rankings.
  refs.remove_class(8);
  CHECK(refs.size() == 8);
  const std::vector<core::RankedLabel> r4 = knn.rank(refs, between);
  for (const auto& r : r4) CHECK(r.label != 8);

  // Empty set: empty ranking, no crash.
  const core::ShardedReferenceSet empty(2);
  CHECK(knn.rank(empty, near7).empty());

  // remove_class + re-add rebuilds the dense class-id tables: rankings must
  // match a freshly built set with the same rows (no stale class_id mapping)
  // — the invariant the sharded probe-and-swap relies on.
  {
    core::ShardedReferenceSet mutated(2);
    const auto fill = [](core::ShardedReferenceSet& rs, int label, float cx, float cy) {
      const float offsets[4][2] = {{0.0f, 0.0f}, {0.05f, 0.0f}, {0.0f, 0.05f}, {-0.05f, -0.05f}};
      for (const auto& o : offsets) rs.add(std::vector<float>{cx + o[0], cy + o[1]}, label);
    };
    fill(mutated, 7, 0.0f, 0.0f);
    fill(mutated, 8, 1.0f, 0.0f);
    fill(mutated, 9, 0.0f, 1.0f);
    mutated.remove_class(8);
    fill(mutated, 8, 1.0f, 0.1f);   // refreshed references, shifted cluster
    fill(mutated, 10, 1.0f, 1.0f);  // plus a class the set has never seen

    // Same rows in the same final order, built without any removal.
    core::ShardedReferenceSet rebuilt(2);
    fill(rebuilt, 7, 0.0f, 0.0f);
    fill(rebuilt, 9, 0.0f, 1.0f);
    fill(rebuilt, 8, 1.0f, 0.1f);
    fill(rebuilt, 10, 1.0f, 1.0f);
    CHECK(mutated.size() == rebuilt.size());
    CHECK(mutated.classes() == rebuilt.classes());

    nn::Matrix queries(4, 2);
    queries.set_row(0, std::vector<float>{0.02f, 0.01f});
    queries.set_row(1, std::vector<float>{1.0f, 0.08f});
    queries.set_row(2, std::vector<float>{0.9f, 0.9f});
    queries.set_row(3, std::vector<float>{0.5f, 0.5f});
    const auto batch_mutated = knn.rank_batch(mutated, queries);
    const auto batch_rebuilt = knn.rank_batch(rebuilt, queries);
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      CHECK(batch_mutated[q].size() == batch_rebuilt[q].size());
      for (std::size_t r = 0; r < batch_mutated[q].size(); ++r) {
        CHECK(batch_mutated[q][r].label == batch_rebuilt[q][r].label);
        CHECK(batch_mutated[q][r].votes == batch_rebuilt[q][r].votes);
        CHECK(batch_mutated[q][r].distance == batch_rebuilt[q][r].distance);
      }
      const auto scalar = knn.rank(mutated, queries.row_span(q));
      CHECK(scalar.size() == batch_mutated[q].size());
      for (std::size_t r = 0; r < scalar.size(); ++r)
        CHECK(scalar[r].label == batch_mutated[q][r].label);
    }
    CHECK(batch_mutated[1].front().label == 8);   // refreshed class wins again
    CHECK(batch_mutated[2].front().label == 10);  // new class is rankable
  }

  return TEST_MAIN_RESULT();
}
