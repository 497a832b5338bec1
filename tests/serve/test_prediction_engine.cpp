// Tests for the sharded multi-series serving layer.
#include "serve/prediction_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace larp::serve {
namespace {

tsdb::SeriesKey key_of(std::size_t s) {
  return {"host" + std::to_string(s / 4), "dev" + std::to_string(s % 4), "cpu"};
}

std::vector<double> ar1_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n);
  double dev = 0.0;
  for (auto& x : xs) {
    dev = 0.8 * dev + rng.normal(0.0, 2.0);
    x = 50.0 + dev;
  }
  return xs;
}

EngineConfig small_config(std::size_t threads, std::size_t shards = 4) {
  EngineConfig config;
  config.lar.window = 5;
  config.shards = shards;
  config.threads = threads;
  config.train_samples = 40;
  config.audit_every = 0;  // determinism tests drive QA explicitly
  return config;
}

TEST(PredictionEngine, ValidatesConstruction) {
  EXPECT_THROW(PredictionEngine(predictors::PredictorPool{}, small_config(1)),
               InvalidArgument);
  auto zero_shards = small_config(1);
  zero_shards.shards = 0;
  EXPECT_THROW(PredictionEngine(predictors::make_paper_pool(5), zero_shards),
               InvalidArgument);
  auto tiny_train = small_config(1);
  tiny_train.train_samples = tiny_train.lar.window + 1;
  EXPECT_THROW(PredictionEngine(predictors::make_paper_pool(5), tiny_train),
               InvalidArgument);
}

TEST(PredictionEngine, NonFiniteObservationDoesNotWedgeAColdSeries) {
  // A NaN sent before training used to enter the history unchecked, so the
  // lazy train() at train_samples threw and left the series broken for good.
  PredictionEngine engine(predictors::make_paper_pool(5), small_config(1));
  const auto key = key_of(0);
  const auto series = ar1_series(40, 2);
  for (std::size_t i = 0; i < 20; ++i) engine.observe(key, series[i]);
  EXPECT_THROW(engine.observe(key, std::nan("")), InvalidArgument);
  EXPECT_THROW(engine.observe(key, std::numeric_limits<double>::infinity()),
               InvalidArgument);
  EXPECT_EQ(engine.stats().observations, 20u);
  for (std::size_t i = 20; i < 40; ++i) engine.observe(key, series[i]);
  EXPECT_TRUE(engine.is_trained(key));
  EXPECT_TRUE(engine.predict(key).ready);
}

TEST(PredictionEngine, NonFiniteBatchCreatesNoSeries) {
  // The whole batch is checked before it is grouped by shard, so no shard
  // sees the good items of a batch that carries a bad one.
  PredictionEngine engine(predictors::make_paper_pool(5), small_config(2));
  std::vector<Observation> batch;
  for (std::size_t s = 0; s < 8; ++s) batch.push_back({key_of(s), 10.0 + s});
  batch.back().value = -std::numeric_limits<double>::infinity();
  EXPECT_THROW(engine.observe(batch), InvalidArgument);
  EXPECT_EQ(engine.series_count(), 0u);
  EXPECT_EQ(engine.stats().observations, 0u);

  batch.back().value = 17.0;
  engine.observe(batch);
  EXPECT_EQ(engine.series_count(), batch.size());
  EXPECT_EQ(engine.stats().observations, batch.size());
}

TEST(PredictionEngine, RejectedBatchesLeaveForecastsUnchanged) {
  // An engine that also receives (and refuses) non-finite batches serves
  // exactly the forecasts and error aggregates of one that never saw them.
  PredictionEngine clean(predictors::make_paper_pool(5), small_config(1));
  PredictionEngine probed(predictors::make_paper_pool(5), small_config(1));
  constexpr std::size_t kSeries = 3;
  std::vector<std::vector<double>> series;
  for (std::size_t s = 0; s < kSeries; ++s) series.push_back(ar1_series(70, 50 + s));
  std::vector<tsdb::SeriesKey> keys;
  for (std::size_t s = 0; s < kSeries; ++s) keys.push_back(key_of(s));
  std::vector<Observation> batch(kSeries);
  for (std::size_t step = 0; step < 70; ++step) {
    const auto want = clean.predict(keys);
    const auto got = probed.predict(keys);
    for (std::size_t s = 0; s < kSeries; ++s) {
      ASSERT_EQ(got[s].ready, want[s].ready);
      ASSERT_EQ(got[s].label, want[s].label);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[s].value),
                std::bit_cast<std::uint64_t>(want[s].value))
          << "series " << s << " step " << step;
    }
    for (std::size_t s = 0; s < kSeries; ++s) batch[s] = {keys[s], series[s][step]};
    if (step % 5 == 0) {
      auto poisoned = batch;
      poisoned[step % kSeries].value = std::nan("");
      EXPECT_THROW(probed.observe(poisoned), InvalidArgument);
    }
    clean.observe(batch);
    probed.observe(batch);
  }
  const EngineStats a = clean.stats();
  const EngineStats b = probed.stats();
  EXPECT_EQ(b.observations, a.observations);
  EXPECT_EQ(b.resolved, a.resolved);
  EXPECT_EQ(b.trains, a.trains);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(b.mean_squared_error),
            std::bit_cast<std::uint64_t>(a.mean_squared_error));
}

TEST(PredictionEngine, ReadinessPointDoesNotDependOnBatching) {
  // A series trains on exactly its train_samples-th observation, whether
  // samples arrive one call at a time or in mixed multi-series batches.
  constexpr std::size_t kSeries = 5;
  PredictionEngine single(predictors::make_paper_pool(5), small_config(1));
  PredictionEngine batched(predictors::make_paper_pool(5), small_config(2, 3));
  std::vector<std::vector<double>> series;
  for (std::size_t s = 0; s < kSeries; ++s) series.push_back(ar1_series(40, 70 + s));
  std::vector<Observation> batch;
  for (std::size_t step = 0; step < 40; ++step) {
    batch.clear();
    for (std::size_t s = 0; s < kSeries; ++s) {
      single.observe(key_of(s), series[s][step]);
      batch.push_back({key_of(s), series[s][step]});
    }
    batched.observe(batch);
    const bool ready = step + 1 >= 40;
    for (std::size_t s = 0; s < kSeries; ++s) {
      ASSERT_EQ(single.is_trained(key_of(s)), ready) << "step " << step;
      ASSERT_EQ(batched.is_trained(key_of(s)), ready) << "step " << step;
    }
  }
  EXPECT_EQ(single.stats().trains, kSeries);
  EXPECT_EQ(batched.stats().trains, kSeries);
  EXPECT_EQ(batched.stats().trained_series, kSeries);
}

TEST(PredictionEngine, LazyTrainsAfterTrainSamples) {
  PredictionEngine engine(predictors::make_paper_pool(5), small_config(1));
  const auto key = key_of(0);
  const auto series = ar1_series(60, 1);
  for (std::size_t i = 0; i < 39; ++i) engine.observe(key, series[i]);
  EXPECT_FALSE(engine.is_trained(key));
  EXPECT_FALSE(engine.predict(key).ready);
  engine.observe(key, series[39]);
  EXPECT_TRUE(engine.is_trained(key));
  const auto prediction = engine.predict(key);
  EXPECT_TRUE(prediction.ready);
  EXPECT_TRUE(std::isfinite(prediction.value));
  EXPECT_EQ(engine.series_count(), 1u);
  EXPECT_EQ(engine.stats().trains, 1u);
}

// The engine must be a pure fan-out: per-series forecasts are identical to a
// standalone LarPredictor fed the same stream, whatever the thread/shard mix.
TEST(PredictionEngine, MatchesStandaloneLarPredictor) {
  const std::size_t kSeries = 12;
  const std::size_t kTrain = 40;
  const std::size_t kSteps = 30;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PredictionEngine engine(predictors::make_paper_pool(5),
                            small_config(threads));

    std::vector<std::vector<double>> streams;
    std::vector<core::LarPredictor> reference;
    std::vector<tsdb::SeriesKey> keys;
    for (std::size_t s = 0; s < kSeries; ++s) {
      streams.push_back(ar1_series(kTrain + kSteps, 100 + s));
      keys.push_back(key_of(s));
      reference.emplace_back(predictors::make_paper_pool(5),
                             small_config(threads).lar);
      reference.back().train(
          std::span<const double>(streams.back().data(), kTrain));
    }

    std::vector<Observation> batch(kSeries);
    for (std::size_t i = 0; i < kTrain; ++i) {
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch[s] = {keys[s], streams[s][i]};
      }
      engine.observe(batch);
    }

    for (std::size_t i = 0; i < kSteps; ++i) {
      const auto predictions = engine.predict(keys);
      for (std::size_t s = 0; s < kSeries; ++s) {
        const auto expected = reference[s].predict_next();
        ASSERT_TRUE(predictions[s].ready);
        ASSERT_DOUBLE_EQ(predictions[s].value, expected.value)
            << "threads=" << threads << " series " << s << " step " << i;
        ASSERT_EQ(predictions[s].label, expected.label);
      }
      for (std::size_t s = 0; s < kSeries; ++s) {
        batch[s] = {keys[s], streams[s][kTrain + i]};
        reference[s].observe(streams[s][kTrain + i]);
      }
      engine.observe(batch);
    }

    const auto stats = engine.stats();
    EXPECT_EQ(stats.series, kSeries);
    EXPECT_EQ(stats.trained_series, kSeries);
    EXPECT_EQ(stats.observations, kSeries * (kTrain + kSteps));
    EXPECT_EQ(stats.predictions, kSeries * kSteps);
    EXPECT_EQ(stats.resolved, kSeries * kSteps);
    EXPECT_GT(stats.mean_squared_error, 0.0);
    EXPECT_GT(stats.observe_seconds, 0.0);
    EXPECT_GT(stats.predict_seconds, 0.0);
  }
}

TEST(PredictionEngine, QaOrdersRetrainOnBadForecasts) {
  auto config = small_config(2);
  config.audit_every = 8;
  config.quality.mse_threshold = 1.0;
  config.quality.min_records = 4;
  PredictionEngine engine(predictors::make_paper_pool(5), config);

  const auto key = key_of(0);
  const auto series = ar1_series(config.train_samples, 7);
  for (double x : series) engine.observe(key, x);
  ASSERT_TRUE(engine.is_trained(key));

  // A level shift of +400 makes every resolved forecast wildly wrong, so an
  // audit must breach the threshold and order a re-train from the retained
  // (post-shift) history.
  Rng rng(8);
  for (int i = 0; i < 64; ++i) {
    (void)engine.predict(key);
    engine.observe(key, 450.0 + rng.normal(0.0, 1.0));
  }
  const auto stats = engine.stats();
  EXPECT_GT(stats.audits, 0u);
  EXPECT_GT(stats.retrains, 0u);

  // After re-training on the shifted regime, forecasts live at the new level.
  const auto prediction = engine.predict(key);
  ASSERT_TRUE(prediction.ready);
  EXPECT_NEAR(prediction.value, 450.0, 25.0);
}

TEST(PredictionEngine, ManySeriesAcrossShardsAndThreads) {
  auto config = small_config(4, /*shards=*/8);
  config.audit_every = 16;
  PredictionEngine engine(predictors::make_paper_pool(5), config);

  const std::size_t kSeries = 64;
  std::vector<tsdb::SeriesKey> keys;
  std::vector<Rng> rngs;
  std::vector<double> level(kSeries, 0.0);
  for (std::size_t s = 0; s < kSeries; ++s) {
    keys.push_back(key_of(s));
    rngs.emplace_back(1000 + s);
  }
  std::vector<Observation> batch(kSeries);
  const std::size_t total_steps = config.train_samples + 20;
  for (std::size_t i = 0; i < total_steps; ++i) {
    if (i > config.train_samples) (void)engine.predict(keys);
    for (std::size_t s = 0; s < kSeries; ++s) {
      level[s] = 0.8 * level[s] + rngs[s].normal(0.0, 2.0);
      batch[s] = {keys[s], 50.0 + level[s]};
    }
    engine.observe(batch);
  }

  const auto stats = engine.stats();
  EXPECT_EQ(stats.series, kSeries);
  EXPECT_EQ(stats.trained_series, kSeries);
  EXPECT_EQ(stats.trains, kSeries);
  EXPECT_EQ(stats.observations, kSeries * total_steps);
  EXPECT_GT(stats.resolved, 0u);
  EXPECT_TRUE(std::isfinite(stats.mean_absolute_error));
}

TEST(PredictionEngine, PredictUnknownSeriesIsNotReady) {
  PredictionEngine engine(predictors::make_paper_pool(5), small_config(1));
  const auto prediction = engine.predict(key_of(9));
  EXPECT_FALSE(prediction.ready);
  EXPECT_TRUE(std::isnan(prediction.value));
  EXPECT_TRUE(std::isnan(prediction.uncertainty));
  EXPECT_EQ(engine.series_count(), 0u);
}

}  // namespace
}  // namespace larp::serve
