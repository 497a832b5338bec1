// Engine-level crash-recovery integration tests: an engine restored from
// snapshot + WAL must continue the forecast sequence BIT-identically to an
// uninterrupted reference engine fed the same stream — doubles compared as
// IEEE-754 bit patterns, not within a tolerance.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "persist/io.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "serve/prediction_engine.hpp"
#include "serve/wal_codec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace larp::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kSeries = 6;
constexpr std::size_t kTrain = 40;

tsdb::SeriesKey key_of(std::size_t s) {
  return {"host" + std::to_string(s / 2), "dev" + std::to_string(s % 2), "cpu"};
}

EngineConfig base_config() {
  EngineConfig config;
  config.lar.window = 5;
  config.shards = 4;
  config.threads = 1;
  config.train_samples = kTrain;
  config.audit_every = 8;  // exercise QA audits through the WAL replay too
  return config;
}

EngineConfig durable_config(const fs::path& dir) {
  EngineConfig config = base_config();
  config.durability.data_dir = dir;
  // Always-fsync so "destroy the engine" is indistinguishable from a crash:
  // every appended frame was already durable before the teardown.
  config.durability.wal.fsync = persist::FsyncPolicy::Always;
  return config;
}

/// Drives `steps` rounds of predict-all + observe-all with a deterministic
/// AR(1) stream per series, continuing from `*step_state` so two engines fed
/// via the same state object see the same values at the same offsets.
struct StreamState {
  std::vector<Rng> rngs;
  std::vector<double> level;
  StreamState() : level(kSeries, 0.0) {
    Rng parent(2007);
    for (std::size_t s = 0; s < kSeries; ++s) rngs.push_back(parent.split(s));
  }
  double sample(std::size_t s) {
    level[s] = 0.8 * level[s] + rngs[s].normal(0.0, 2.0);
    return 50.0 + level[s];
  }
};

void drive(PredictionEngine& engine, StreamState& stream, std::size_t steps,
           bool with_predict) {
  std::vector<tsdb::SeriesKey> keys;
  for (std::size_t s = 0; s < kSeries; ++s) keys.push_back(key_of(s));
  std::vector<Observation> batch(kSeries);
  for (std::size_t i = 0; i < steps; ++i) {
    if (with_predict) (void)engine.predict(keys);
    for (std::size_t s = 0; s < kSeries; ++s) {
      batch[s] = {keys[s], stream.sample(s)};
    }
    engine.observe(batch);
  }
}

/// Bit-exact comparison, treating NaN == NaN (early uncertainty is NaN).
void expect_bit_identical(const Prediction& got, const Prediction& want,
                          std::size_t series, std::size_t step) {
  EXPECT_EQ(got.ready, want.ready) << "series " << series << " step " << step;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.value),
            std::bit_cast<std::uint64_t>(want.value))
      << "series " << series << " step " << step;
  EXPECT_EQ(got.label, want.label) << "series " << series << " step " << step;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.uncertainty),
            std::bit_cast<std::uint64_t>(want.uncertainty))
      << "series " << series << " step " << step;
}

/// Feeds both engines the same post-recovery stream and asserts every
/// forecast of every series matches bit-for-bit.
void expect_identical_future(PredictionEngine& restored,
                             PredictionEngine& reference, StreamState& stream_a,
                             StreamState& stream_b, std::size_t steps) {
  std::vector<tsdb::SeriesKey> keys;
  for (std::size_t s = 0; s < kSeries; ++s) keys.push_back(key_of(s));
  std::vector<Observation> batch(kSeries);
  for (std::size_t i = 0; i < steps; ++i) {
    const auto got = restored.predict(keys);
    const auto want = reference.predict(keys);
    for (std::size_t s = 0; s < kSeries; ++s) {
      expect_bit_identical(got[s], want[s], s, i);
    }
    for (std::size_t s = 0; s < kSeries; ++s) {
      batch[s] = {keys[s], stream_a.sample(s)};
      ASSERT_EQ(batch[s].value, stream_b.sample(s));
    }
    restored.observe(batch);
    reference.observe(batch);
  }
}

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("larp_recovery_" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// The headline contract: snapshot mid-stream, keep serving (WAL only), crash,
// restore — the restored engine and an uninterrupted reference then agree on
// every future forecast, bit for bit.
TEST_F(RecoveryTest, SnapshotPlusWalReplayIsBitIdentical) {
  StreamState stream_a;
  StreamState stream_b;
  auto reference = std::make_unique<PredictionEngine>(
      predictors::make_paper_pool(5), base_config());
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 10, /*with_predict=*/true);
    (void)durable.snapshot();
    // 17 more rounds after the snapshot live only in the WAL.
    drive(durable, stream_a, 17, /*with_predict=*/true);
  }  // "crash"
  drive(*reference, stream_b, kTrain + 10 + 17, /*with_predict=*/true);

  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  const auto restored_stats = restored->stats();
  const auto reference_stats = reference->stats();
  EXPECT_EQ(restored_stats.observations, reference_stats.observations);
  EXPECT_EQ(restored_stats.predictions, reference_stats.predictions);
  EXPECT_EQ(restored_stats.trains, reference_stats.trains);
  EXPECT_EQ(restored_stats.resolved, reference_stats.resolved);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored_stats.mean_squared_error),
            std::bit_cast<std::uint64_t>(reference_stats.mean_squared_error));

  expect_identical_future(*restored, *reference, stream_a, stream_b, 25);
}

// No snapshot was ever taken: recovery replays the whole log from zero.
TEST_F(RecoveryTest, WalOnlyRecoveryFromEmptySnapshotDir) {
  StreamState stream_a;
  StreamState stream_b;
  auto reference = std::make_unique<PredictionEngine>(
      predictors::make_paper_pool(5), base_config());
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 12, /*with_predict=*/true);
  }
  drive(*reference, stream_b, kTrain + 12, /*with_predict=*/true);

  ASSERT_TRUE(persist::list_snapshots(dir_).empty());
  // With no snapshot there is no stored identity: the override supplies the
  // full configuration, which must match what the crashed engine ran with.
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, base_config());
  EXPECT_EQ(restored->stats().trains, reference->stats().trains);
  expect_identical_future(*restored, *reference, stream_a, stream_b, 20);
}

// Restoring an empty directory yields a fresh, working durable engine.
TEST_F(RecoveryTest, RestoreOfEmptyDirectoryStartsFresh) {
  auto engine = PredictionEngine::restore(predictors::make_paper_pool(5), dir_,
                                          base_config());
  EXPECT_EQ(engine->series_count(), 0u);
  StreamState stream;
  drive(*engine, stream, kTrain + 2, /*with_predict=*/true);
  EXPECT_EQ(engine->stats().trains, kSeries);
  EXPECT_GT(engine->snapshot(), 0u);
}

// A bit-flipped newest snapshot must be rejected; recovery falls back to the
// previous valid snapshot and replays the (longer) WAL suffix past it.
TEST_F(RecoveryTest, BitFlippedSnapshotFallsBackToPreviousValid) {
  StreamState stream_a;
  StreamState stream_b;
  auto reference = std::make_unique<PredictionEngine>(
      predictors::make_paper_pool(5), base_config());
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 5, /*with_predict=*/true);
    (void)durable.snapshot();  // epoch 1 (valid fallback)
    drive(durable, stream_a, 9, /*with_predict=*/true);
    (void)durable.snapshot();  // epoch 2 (to be corrupted)
    drive(durable, stream_a, 4, /*with_predict=*/true);
  }
  drive(*reference, stream_b, kTrain + 5 + 9 + 4, /*with_predict=*/true);

  const auto snapshots = persist::list_snapshots(dir_);
  ASSERT_EQ(snapshots.size(), 2u);
  ASSERT_EQ(snapshots.back().epoch, 2u);
  {
    std::fstream f(snapshots.back().path,
                   std::ios::in | std::ios::out | std::ios::binary);
    const auto at =
        static_cast<std::streamoff>(fs::file_size(snapshots.back().path) / 3);
    f.seekg(at);
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(at);
    f.write(&byte, 1);
  }

  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  EXPECT_EQ(restored->stats().observations,
            reference->stats().observations);
  expect_identical_future(*restored, *reference, stream_a, stream_b, 15);
}

// A torn WAL tail (crash mid-append) recovers to the last valid frame; the
// restored engine equals a reference that never saw the torn observations.
TEST_F(RecoveryTest, TornWalTailRecoversToLastValidFrame) {
  StreamState stream_a;
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 8, /*with_predict=*/true);
  }
  // Tear bytes off the end of every shard's newest segment.
  std::size_t torn_shards = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const auto segments = persist::list_wal_segments(dir_, s);
    if (segments.empty()) continue;
    const auto& tail = segments.back().path;
    const auto size = fs::file_size(tail);
    ASSERT_GT(size, 5u);
    fs::resize_file(tail, size - 5);
    ++torn_shards;
  }
  ASSERT_GT(torn_shards, 0u);

  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, base_config());
  // One torn frame per shard at most: nothing threw, state is serviceable,
  // and the repaired log accepts appends at the recovered position.
  EXPECT_EQ(restored->series_count(), kSeries);
  StreamState ignored;
  drive(*restored, ignored, 5, /*with_predict=*/true);
  restored.reset();

  // The repaired directory restores cleanly a second time.
  auto again = PredictionEngine::restore(predictors::make_paper_pool(5), dir_,
                                         base_config());
  EXPECT_EQ(again->series_count(), kSeries);
}

// Crash mid-group: with one shard, every batched observe()/predict() call
// stages one multi-frame WAL group, committed with a single write.  A tear
// landing inside such a group must recover exactly the checksum-valid frame
// prefix — asserted by restoring twice and demanding bit-identical state
// (same replay cut, same accumulated error sums) both times.
TEST_F(RecoveryTest, TornMidGroupTailRecoversValidPrefix) {
  EngineConfig config = durable_config(dir_);
  config.shards = 1;  // all kSeries frames of a batch land in one group
  StreamState stream;
  {
    PredictionEngine durable(predictors::make_paper_pool(5), config);
    drive(durable, stream, kTrain + 6, /*with_predict=*/true);
  }
  const auto count_frames = [&] {
    return persist::replay_wal(dir_, 0, 0, [](const persist::WalFrame&) {});
  };
  const auto before = count_frames();
  ASSERT_FALSE(before.truncated_tail);
  ASSERT_GT(before.next_seq, 2 * kSeries);

  // Tear into the middle of the final group: each batch commits one block
  // frame carrying kSeries ops, so chopping 60 bytes removes at least one
  // whole frame and tears another mid-frame.
  const auto segments = persist::list_wal_segments(dir_, 0);
  ASSERT_FALSE(segments.empty());
  const auto& tail = segments.back().path;
  const auto size = fs::file_size(tail);
  ASSERT_GT(size, 100u);
  fs::resize_file(tail, size - 60);

  const auto torn = count_frames();
  EXPECT_TRUE(torn.truncated_tail);
  EXPECT_LT(torn.next_seq, before.next_seq);
  EXPECT_GT(torn.next_seq, 0u);

  EngineConfig restore_config = base_config();
  restore_config.shards = 1;
  EngineStats first_stats;
  {
    auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                              dir_, restore_config);
    EXPECT_EQ(restored->series_count(), kSeries);
    first_stats = restored->stats();
    // The tear cost frames: fewer ops replayed than the run issued (each
    // block frame carries kSeries ops, so next_seq counts frames, not ops).
    EXPECT_LT(first_stats.observations + first_stats.predictions,
              2 * (kTrain + 6) * kSeries);
  }
  // The first restore repaired the torn suffix on disk; a second restore of
  // the same directory must land on the exact same prefix.
  auto again = PredictionEngine::restore(predictors::make_paper_pool(5), dir_,
                                         restore_config);
  const auto second_stats = again->stats();
  EXPECT_EQ(second_stats.observations, first_stats.observations);
  EXPECT_EQ(second_stats.predictions, first_stats.predictions);
  EXPECT_EQ(second_stats.resolved, first_stats.resolved);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(second_stats.mean_squared_error),
            std::bit_cast<std::uint64_t>(first_stats.mean_squared_error));
  // And the repaired log accepts appends at the recovered position.
  StreamState ignored;
  drive(*again, ignored, 3, /*with_predict=*/true);
}

// Crash in the middle of a background snapshot: the publication protocol
// writes snapshot-<epoch>.snap.tmp and renames only after a full fsync, so a
// kill mid-write leaves an orphaned .tmp (possibly torn) next to the
// previous retained snapshot.  Recovery must ignore the orphan, restore from
// the previous snapshot, replay the WAL past it, and match an uninterrupted
// reference bit for bit.
TEST_F(RecoveryTest, CrashDuringSnapshotFallsBackToRetained) {
  StreamState stream_a;
  StreamState stream_b;
  auto reference = std::make_unique<PredictionEngine>(
      predictors::make_paper_pool(5), base_config());
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream_a, kTrain + 6, /*with_predict=*/true);
    (void)durable.snapshot();  // epoch 1: the survivor
    drive(durable, stream_a, 8, /*with_predict=*/true);
  }  // crash "during" the epoch-2 snapshot, simulated below
  drive(*reference, stream_b, kTrain + 6 + 8, /*with_predict=*/true);

  // Fabricate the orphan the killed snapshot would leave: the first half of
  // a would-be epoch-2 file (no trailing checksum, never renamed).
  const auto snapshots = persist::list_snapshots(dir_);
  ASSERT_EQ(snapshots.size(), 1u);
  std::vector<char> half;
  {
    std::ifstream in(snapshots[0].path, std::ios::binary);
    half.resize(static_cast<std::size_t>(fs::file_size(snapshots[0].path)) / 2);
    in.read(half.data(), static_cast<std::streamsize>(half.size()));
  }
  const fs::path orphan =
      dir_ / "snapshot-00000000000000000002.snap.tmp";
  {
    std::ofstream out(orphan, std::ios::binary);
    out.write(half.data(), static_cast<std::streamsize>(half.size()));
  }

  // The orphan is invisible to snapshot discovery...
  ASSERT_EQ(persist::list_snapshots(dir_).size(), 1u);
  // ...and recovery = retained snapshot + full WAL suffix, bit-identical.
  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  EXPECT_EQ(restored->stats().observations, reference->stats().observations);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(restored->stats().mean_squared_error),
            std::bit_cast<std::uint64_t>(reference->stats().mean_squared_error));
  expect_identical_future(*restored, *reference, stream_a, stream_b, 15);

  // The next snapshot reclaims the epoch the orphan squatted on (publish
  // removes a stale .tmp before writing).
  EXPECT_EQ(restored->snapshot(), 2u);
  EXPECT_EQ(persist::list_snapshots(dir_).size(), 2u);
}

// erase() is WAL-logged: a restored engine must not resurrect the series.
TEST_F(RecoveryTest, EraseSurvivesRecovery) {
  StreamState stream;
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream, kTrain + 4, /*with_predict=*/true);
    EXPECT_TRUE(durable.erase(key_of(0)));
    EXPECT_FALSE(durable.erase(key_of(0)));  // second erase is a no-op
    EXPECT_EQ(durable.series_count(), kSeries - 1);
  }
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, base_config());
  EXPECT_EQ(restored->series_count(), kSeries - 1);
  EXPECT_FALSE(restored->is_trained(key_of(0)));
  EXPECT_TRUE(restored->is_trained(key_of(1)));
  EXPECT_EQ(restored->stats().erases, 1u);
}

// The restore-time override contributes runtime knobs only; the snapshot's
// identity fields (window, shards, train cadence) win.
TEST_F(RecoveryTest, OverrideCannotChangeIdentityFields) {
  StreamState stream;
  {
    PredictionEngine durable(predictors::make_paper_pool(5),
                             durable_config(dir_));
    drive(durable, stream, kTrain + 2, /*with_predict=*/false);
    (void)durable.snapshot();
  }
  EngineConfig override_config = base_config();
  override_config.lar.window = 9;   // identity: must be ignored
  override_config.shards = 2;       // identity: must be ignored
  override_config.threads = 2;      // runtime: must be honored
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, override_config);
  EXPECT_EQ(restored->config().lar.window, 5u);
  EXPECT_EQ(restored->config().shards, 4u);
  EXPECT_EQ(restored->config().durability.data_dir, dir_);
}

// snapshot() into the configured data_dir prunes WAL segments the snapshot
// made obsolete (whole segments only).
TEST_F(RecoveryTest, SnapshotPrunesCoveredWalSegments) {
  auto config = durable_config(dir_);
  config.durability.wal.segment_bytes = 512;  // force frequent rotation
  StreamState stream;
  {
    PredictionEngine durable(predictors::make_paper_pool(5), config);
    drive(durable, stream, kTrain + 20, /*with_predict=*/true);
    std::size_t before = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
      before += persist::list_wal_segments(dir_, s).size();
    }
    ASSERT_GT(before, 4u);  // rotation actually happened
    (void)durable.snapshot();
    std::size_t after = 0;
    for (std::uint32_t s = 0; s < 4; ++s) {
      after += persist::list_wal_segments(dir_, s).size();
    }
    EXPECT_LT(after, before);
  }
  // And the pruned directory still restores.
  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  EXPECT_EQ(restored->series_count(), kSeries);
}

// A WAL-only directory cannot carry the shard count, and replaying it under
// a different one silently strands whole shard logs.  Restore must refuse
// instead of quietly losing data.
TEST_F(RecoveryTest, WalOnlyRestoreUnderWrongShardCountIsRefused) {
  StreamState stream;
  {
    PredictionEngine engine(predictors::make_paper_pool(5),
                            durable_config(dir_));  // 4 shards
    drive(engine, stream, 8, /*with_predict=*/true);
  }
  EngineConfig wrong = durable_config(dir_);
  wrong.shards = 2;
  EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                               dir_, wrong),
               persist::CorruptData);
  wrong.shards = 8;
  EXPECT_THROW((void)PredictionEngine::restore(predictors::make_paper_pool(5),
                                               dir_, wrong),
               persist::CorruptData);
  // The matching count restores everything.
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, durable_config(dir_));
  EXPECT_EQ(restored->stats().observations, 8 * kSeries);
}

// The current format, pinned as committed bytes: a v5 directory (snapshot
// with compressed shard sections + block WAL frames) must keep restoring.
// A writer change that alters the layout without bumping the payload
// version fails here.  Recipe for testdata/engine-v5: a durable_config()
// engine fed drive(kTrain + 6, with_predict) from a fresh StreamState,
// snapshot(), then drive(5, with_predict) more rounds that live only in the
// WAL, then destroyed.
TEST_F(RecoveryTest, GoldenV5EngineDirectoryStillRestores) {
  const fs::path fixture =
      fs::path(LARP_PERSIST_TESTDATA_DIR) / "engine-v5";
  ASSERT_TRUE(fs::exists(fixture)) << "missing committed fixture " << fixture;
  // Restore mutates the directory (WAL writers open), so work on a copy and
  // leave the committed fixture pristine.
  fs::copy(fixture, dir_, fs::copy_options::recursive);

  {
    const auto loaded = persist::load_newest_valid(dir_);
    ASSERT_TRUE(loaded.has_value());
    const auto desc = PredictionEngine::describe_payload(loaded->payload);
    EXPECT_EQ(desc.payload_version, 5u);
    EXPECT_EQ(desc.shards, 4u);
    // Every shard held series at the cut: one predict and one observe block
    // frame per round.
    EXPECT_EQ(desc.watermarks,
              std::vector<std::uint64_t>(4, 2 * (kTrain + 6)));
  }

  auto restored =
      PredictionEngine::restore(predictors::make_paper_pool(5), dir_);
  const auto stats = restored->stats();
  EXPECT_EQ(restored->series_count(), kSeries);
  EXPECT_EQ(stats.trains, kSeries);
  EXPECT_EQ(stats.observations, (kTrain + 11) * kSeries);
  EXPECT_EQ(stats.predictions, (kTrain + 11) * kSeries);
  EXPECT_EQ(restored->config().lar.window, 5u);
  EXPECT_EQ(restored->config().shards, 4u);
  EXPECT_EQ(restored->wal_positions(),
            std::vector<std::uint64_t>(4, 2 * (kTrain + 11)));
  std::vector<tsdb::SeriesKey> keys;
  for (std::size_t s = 0; s < kSeries; ++s) keys.push_back(key_of(s));
  for (const auto& p : restored->predict(keys)) EXPECT_TRUE(p.ready);
}

// Non-finite observations are refused before anything is logged: the whole
// batch is rejected, the error aggregates stay finite, and a restore keeps
// every accepted observation.  (A NaN frame used to reach the WAL, poison
// MAE/MSE, and make replay discard every valid frame behind it.)
TEST_F(RecoveryTest, NonFiniteObservationIsRefusedBeforeLogging) {
  StreamState stream_a;
  StreamState stream_b;
  PredictionEngine reference(predictors::make_paper_pool(5), base_config());
  drive(reference, stream_b, kTrain + 6, /*with_predict=*/true);
  {
    PredictionEngine engine(predictors::make_paper_pool(5),
                            durable_config(dir_));
    drive(engine, stream_a, kTrain + 3, /*with_predict=*/true);
    const EngineStats before = engine.stats();
    ASSERT_EQ(before.trained_series, kSeries);
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
      // A good sample rides in the same batch: it is refused with the rest.
      const std::vector<Observation> batch = {{key_of(0), 50.0},
                                              {key_of(1), bad}};
      EXPECT_THROW(engine.observe(batch), InvalidArgument);
      EXPECT_THROW(engine.observe(key_of(2), bad), InvalidArgument);
    }
    const EngineStats after = engine.stats();
    EXPECT_EQ(after.observations, before.observations);
    EXPECT_EQ(after.resolved, before.resolved);
    EXPECT_TRUE(std::isfinite(after.mean_absolute_error));
    EXPECT_TRUE(std::isfinite(after.mean_squared_error));
    drive(engine, stream_a, 3, /*with_predict=*/true);
  }
  auto restored = PredictionEngine::restore(predictors::make_paper_pool(5),
                                            dir_, durable_config(dir_));
  EXPECT_EQ(restored->stats().observations, reference.stats().observations);
  EXPECT_TRUE(std::isfinite(restored->stats().mean_squared_error));
  expect_identical_future(*restored, reference, stream_a, stream_b, 10);
}

// One WAL frame format: every frame the engine logs — observe, predict and
// erase alike — is a compressed block frame, the only payload replay and
// replication accept.
TEST_F(RecoveryTest, WalHoldsOnlyCompressedBlockFrames) {
  StreamState stream;
  {
    PredictionEngine engine(predictors::make_paper_pool(5),
                            durable_config(dir_));
    drive(engine, stream, kTrain + 4, /*with_predict=*/true);
    ASSERT_TRUE(engine.erase(key_of(1)));
  }
  std::size_t frames = 0;
  std::size_t ops = 0;
  for (std::uint32_t shard = 0; shard < base_config().shards; ++shard) {
    (void)persist::replay_wal(dir_, shard, 0, [&](const persist::WalFrame& f) {
      ++frames;
      EXPECT_TRUE(WalPayloadCodec::is_block(f.payload)) << "shard " << shard;
      ops += WalPayloadCodec::payload_weight(f.payload);
    });
  }
  EXPECT_GT(frames, 0u);
  // observe + predict per series per step, plus the erase.
  EXPECT_EQ(ops, 2 * kSeries * (kTrain + 4) + 1);
}

// A payload of any version but the current one must be refused loudly —
// silently misreading an older or newer layout would corrupt instead of
// failing.
TEST_F(RecoveryTest, FutureEnginePayloadVersionIsRejected) {
  persist::ensure_directory(dir_);
  std::uint64_t epoch = 0;
  for (const std::uint32_t version : {0u, 1u, 2u, 3u, 4u, 99u}) {
    persist::io::Writer w;
    w.u32(version);
    w.u64(0);
    persist::publish_snapshot(dir_, ++epoch, w.bytes());
    EXPECT_THROW((void)PredictionEngine::restore(
                     predictors::make_paper_pool(5), dir_),
                 persist::CorruptData)
        << "version " << version;
    EXPECT_THROW((void)PredictionEngine::describe_payload(w.bytes()),
                 persist::CorruptData)
        << "version " << version;
  }
}

// A frame that is intact on disk but cannot be applied is not a torn tail:
// restore must fail and leave every log byte where it was, not truncate the
// frame away (a second restore would then silently lose it and everything
// after it).
TEST_F(RecoveryTest, UnappliableFrameFailsRestoreWithoutTouchingTheLog) {
  StreamState stream;
  {
    PredictionEngine engine(predictors::make_paper_pool(5),
                            durable_config(dir_));
    drive(engine, stream, kTrain + 2, /*with_predict=*/true);
  }
  // A CRC-valid frame that is not a block, after shard 2's block frames:
  // shards 0 and 1 replay cleanly before restore reaches it.
  {
    persist::WalWriter writer(dir_, 2, durable_config(dir_).durability.wal);
    const std::byte not_a_block[] = {std::byte{0}};
    (void)writer.append(not_a_block);
  }
  const auto read_all = [&] {
    std::vector<std::pair<std::string, std::string>> files;
    for (std::uint32_t shard = 0; shard < 4; ++shard) {
      for (const auto& segment : persist::list_wal_segments(dir_, shard)) {
        std::ifstream in(segment.path, std::ios::binary);
        files.emplace_back(segment.path.filename().string(),
                           std::string(std::istreambuf_iterator<char>(in), {}));
      }
    }
    return files;
  };
  const auto before = read_all();
  ASSERT_EQ(before.size(), 4u);

  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_THROW((void)PredictionEngine::restore(
                     predictors::make_paper_pool(5), dir_, base_config()),
                 persist::CorruptData)
        << "attempt " << attempt;
    EXPECT_TRUE(read_all() == before) << "attempt " << attempt;
  }
}

}  // namespace
}  // namespace larp::serve
