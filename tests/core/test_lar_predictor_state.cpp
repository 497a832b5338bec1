// Tests for LarPredictor::save_state()/load_state(): a restored predictor
// continues the forecast sequence bit-identically for every classifier and
// backend, and malformed state is refused as persist::CorruptData.
#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/lar_predictor.hpp"
#include "persist/io.hpp"
#include "predictors/pool.hpp"
#include "util/rng.hpp"

namespace larp::core {
namespace {

LarConfig paper_config() {
  LarConfig config;
  config.window = 5;
  config.pca_components = 2;
  config.knn_k = 3;
  return config;
}

std::vector<double> ar1_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  double dev = 0.0;
  for (auto& x : xs) {
    dev = 0.8 * dev + rng.normal(0.0, 5.0);
    x = 50.0 + dev;
  }
  return xs;
}

std::vector<std::byte> saved(const LarPredictor& lar) {
  persist::io::Writer w;
  lar.save_state(w);
  return {w.bytes().begin(), w.bytes().end()};
}

void load(LarPredictor& lar, std::span<const std::byte> bytes) {
  persist::io::Reader r(bytes);
  lar.load_state(r);
}

/// Trains on the first `train_at` points, runs predict/observe up to
/// `save_at`, round-trips the state into a fresh predictor, then drives both
/// over the rest of the series and requires bit-identical forecasts
/// (uncertainty included, NaN == NaN).
void expect_round_trip_continues(const LarConfig& config, std::uint64_t seed) {
  const auto series = ar1_series(160, seed);
  constexpr std::size_t kTrainAt = 80;
  constexpr std::size_t kSaveAt = 100;
  LarPredictor original(predictors::make_paper_pool(5), config);
  original.train({series.data(), kTrainAt});
  for (std::size_t i = kTrainAt; i < kSaveAt; ++i) {
    (void)original.predict_next();
    original.observe(series[i]);
  }
  LarPredictor restored(predictors::make_paper_pool(5), config);
  load(restored, saved(original));
  ASSERT_TRUE(restored.trained());
  EXPECT_EQ(restored.observed_count(), original.observed_count());
  EXPECT_EQ(restored.training_labels(), original.training_labels());
  EXPECT_EQ(restored.selector().name(), original.selector().name());

  for (std::size_t i = kSaveAt; i < series.size(); ++i) {
    const auto a = original.predict_next();
    const auto b = restored.predict_next();
    ASSERT_EQ(a.label, b.label) << "step " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.value),
              std::bit_cast<std::uint64_t>(b.value))
        << "step " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.uncertainty),
              std::bit_cast<std::uint64_t>(b.uncertainty))
        << "step " << i;
    original.observe(series[i]);
    restored.observe(series[i]);
  }
  EXPECT_EQ(restored.online_windows_learned(),
            original.online_windows_learned());
}

TEST(LarPredictorState, UntrainedStateLoadsAsUntrained) {
  const LarPredictor untrained(predictors::make_paper_pool(5), paper_config());
  const auto bytes = saved(untrained);
  EXPECT_EQ(bytes.size(), 1u);  // just the "not trained" flag

  // Loading it over a trained predictor drops the trained model.
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(ar1_series(80, 3));
  ASSERT_TRUE(lar.trained());
  load(lar, bytes);
  EXPECT_FALSE(lar.trained());
}

TEST(LarPredictorState, KnnRoundTripContinuesBitIdentically) {
  expect_round_trip_continues(paper_config(), 11);
}

TEST(LarPredictorState, KdTreeRoundTripContinuesBitIdentically) {
  LarConfig config = paper_config();
  config.knn_backend = ml::KnnBackend::KdTree;
  expect_round_trip_continues(config, 13);
}

TEST(LarPredictorState, CentroidRoundTripContinuesBitIdentically) {
  LarConfig config = paper_config();
  config.classifier = ClassifierKind::NearestCentroid;
  expect_round_trip_continues(config, 17);
}

TEST(LarPredictorState, OnlineLearningRoundTripContinuesBitIdentically) {
  // The grown k-NN index and the label trackers are part of the state.
  LarConfig config = paper_config();
  config.online_learning = true;
  expect_round_trip_continues(config, 19);
}

TEST(LarPredictorState, PendingForecastSurvivesTheRoundTrip) {
  // Saved between predict_next() and observe(): the restored predictor must
  // resolve the same pending forecast into its residual history.
  const auto series = ar1_series(120, 23);
  LarPredictor original(predictors::make_paper_pool(5), paper_config());
  original.train({series.data(), 80});
  for (std::size_t i = 80; i < 90; ++i) {
    (void)original.predict_next();
    original.observe(series[i]);
  }
  (void)original.predict_next();
  LarPredictor restored(predictors::make_paper_pool(5), paper_config());
  load(restored, saved(original));
  original.observe(series[90]);
  restored.observe(series[90]);
  EXPECT_EQ(restored.resolved_forecasts(), original.resolved_forecasts());
  EXPECT_EQ(restored.resolved_forecasts(), 11u);
}

TEST(LarPredictorState, UnknownSelectorKindIsCorrupt) {
  // The selector kind byte follows the trained flag, the normalizer and the
  // PCA.  Only k-NN (1) and nearest-centroid (2) exist; 3 was the removed
  // cold-start tier's envelope.
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(ar1_series(80, 29));
  persist::io::Writer prefix;
  prefix.boolean(true);
  lar.normalizer().save(prefix);
  lar.pca().save(prefix);
  const std::size_t kind_offset = prefix.size();
  const auto good = saved(lar);
  ASSERT_EQ(std::to_integer<int>(good[kind_offset]), 1);

  for (const int kind : {0, 3, 255}) {
    auto bad = good;
    bad[kind_offset] = static_cast<std::byte>(kind);
    LarPredictor restored(predictors::make_paper_pool(5), paper_config());
    EXPECT_THROW(load(restored, bad), persist::CorruptData) << "kind " << kind;
  }
}

TEST(LarPredictorState, TruncatedStateIsCorrupt) {
  LarPredictor lar(predictors::make_paper_pool(5), paper_config());
  lar.train(ar1_series(80, 31));
  const auto good = saved(lar);
  for (std::size_t cut = 1; cut < good.size(); cut += 13) {
    LarPredictor restored(predictors::make_paper_pool(5), paper_config());
    EXPECT_THROW(load(restored, {good.data(), cut}), persist::CorruptData)
        << "cut at " << cut << " of " << good.size();
  }
}

TEST(LarPredictorState, PoolOfAnotherSizeIsCorrupt) {
  // Snapshots store state, not configuration: loading into a predictor
  // built around a different pool must fail loudly.
  LarConfig config = paper_config();
  config.window = 8;
  LarPredictor paper(predictors::make_paper_pool(8), config);
  paper.train(ar1_series(200, 37));
  LarPredictor extended(predictors::make_extended_pool(8), config);
  EXPECT_THROW(load(extended, saved(paper)), persist::CorruptData);
}

}  // namespace
}  // namespace larp::core
