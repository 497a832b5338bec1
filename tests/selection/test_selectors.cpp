// Tests for the selector strategy layer (oracle / NWS / windowed / static /
// k-NN).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "ml/framing.hpp"
#include "selection/knn_selector.hpp"
#include "selection/nws_selector.hpp"
#include "selection/oracle_selector.hpp"
#include "selection/static_selector.hpp"
#include "util/error.hpp"

namespace larp::selection {
namespace {

const std::vector<double> kWindow{1.0, 2.0, 3.0};

TEST(ArgminLabel, SmallestWithLowIndexTies) {
  EXPECT_EQ(argmin_label(std::vector<double>{3, 1, 2}), 1u);
  EXPECT_EQ(argmin_label(std::vector<double>{1, 1, 1}), 0u);
  EXPECT_EQ(argmin_label(std::vector<double>{2, 1, 1}), 1u);
  EXPECT_THROW((void)argmin_label(std::vector<double>{}), InvalidArgument);
}

TEST(BestForecastLabel, ClosestToActual) {
  // forecasts {0.5, 2.0, 5.0} vs actual 1.8 -> label 1.
  EXPECT_EQ(best_forecast_label(std::vector<double>{0.5, 2.0, 5.0}, 1.8), 1u);
  // Exact tie in |error| resolves to the lower label.
  EXPECT_EQ(best_forecast_label(std::vector<double>{1.0, 3.0}, 2.0), 0u);
}

TEST(StaticSelector, AlwaysSameLabel) {
  StaticSelector sel(2, "SW_AVG");
  EXPECT_EQ(sel.select(kWindow), 2u);
  sel.record(std::vector<double>{0, 0, 100}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 2u);
  EXPECT_EQ(sel.name(), "STATIC(SW_AVG)");
  EXPECT_FALSE(sel.needs_hindsight());
  EXPECT_EQ(sel.clone()->select(kWindow), 2u);
}

TEST(OracleSelector, HindsightPicksSmallestError) {
  OracleSelector oracle;
  EXPECT_TRUE(oracle.needs_hindsight());
  EXPECT_EQ(oracle.select_hindsight(std::vector<double>{5.0, 1.1, 0.0}, 1.0), 1u);
}

TEST(OracleSelector, CausalModeIsPersistence) {
  OracleSelector oracle;
  EXPECT_EQ(oracle.select(kWindow), 0u);  // cold start
  oracle.record(std::vector<double>{9.0, 1.0}, 1.0);
  EXPECT_EQ(oracle.select(kWindow), 1u);  // last step's best
  oracle.reset();
  EXPECT_EQ(oracle.select(kWindow), 0u);
}

TEST(CumulativeMse, ValidatesPoolSize) {
  EXPECT_THROW(CumulativeMseSelector(0), InvalidArgument);
}

TEST(CumulativeMse, ColdStartPicksLabelZero) {
  CumulativeMseSelector sel(3);
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(CumulativeMse, TracksLowestCumulativeError) {
  CumulativeMseSelector sel(2);
  // Member 0 errs by 2 each step, member 1 by 1.
  sel.record(std::vector<double>{2.0, 1.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 1u);
  // One huge error for member 1 flips the cumulative ranking.
  sel.record(std::vector<double>{2.0, 10.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 0u);
  const auto errors = sel.errors();
  EXPECT_DOUBLE_EQ(errors[0], 4.0);
  EXPECT_DOUBLE_EQ(errors[1], (1.0 + 100.0) / 2.0);
}

TEST(CumulativeMse, CumulativeMemoryIsSlowToForgive) {
  // The paper's criticism: cumulative MSE adapts slowly after a regime
  // change because all history weighs in.
  CumulativeMseSelector cum(2);
  WindowedCumMseSelector win(2, 2);
  // Long stretch where member 0 is best.
  for (int i = 0; i < 50; ++i) {
    cum.record(std::vector<double>{0.1, 5.0}, 0.0);
    win.record(std::vector<double>{0.1, 5.0}, 0.0);
  }
  // Regime flips: member 1 becomes best.
  for (int i = 0; i < 3; ++i) {
    cum.record(std::vector<double>{5.0, 0.1}, 0.0);
    win.record(std::vector<double>{5.0, 0.1}, 0.0);
  }
  EXPECT_EQ(cum.select(kWindow), 0u);  // still stuck on stale history
  EXPECT_EQ(win.select(kWindow), 1u);  // windowed variant adapted
}

TEST(CumulativeMse, RecordValidatesForecastCount) {
  CumulativeMseSelector sel(3);
  EXPECT_THROW(sel.record(std::vector<double>{1.0}, 0.0), InvalidArgument);
}

TEST(CumulativeMse, ResetClearsHistory) {
  CumulativeMseSelector sel(2);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 1u);
  sel.reset();
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(CumulativeMse, CloneCarriesState) {
  CumulativeMseSelector sel(2);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  const auto copy = sel.clone();
  EXPECT_EQ(copy->select(kWindow), 1u);
}

TEST(EwmaMse, Validation) {
  EXPECT_THROW(EwmaMseSelector(0, 0.9), InvalidArgument);
  EXPECT_THROW(EwmaMseSelector(3, 0.0), InvalidArgument);
  EXPECT_THROW(EwmaMseSelector(3, 1.0), InvalidArgument);
}

TEST(EwmaMse, ColdStartPicksLabelZero) {
  EwmaMseSelector sel(3, 0.9);
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(EwmaMse, RecentErrorsDominateWithFastDecay) {
  // decay 0.1: essentially the last error decides.
  EwmaMseSelector sel(2, 0.1);
  for (int i = 0; i < 20; ++i) sel.record(std::vector<double>{0.1, 5.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 0u);
  sel.record(std::vector<double>{5.0, 0.1}, 0.0);  // one flip is enough
  EXPECT_EQ(sel.select(kWindow), 1u);
}

TEST(EwmaMse, SlowDecayApproachesCumulativeBehaviour) {
  // decay 0.995 barely forgets: after a long stretch favouring member 0,
  // a few contrary steps cannot flip it — same stickiness as Cum.MSE.
  EwmaMseSelector sel(2, 0.995);
  for (int i = 0; i < 200; ++i) sel.record(std::vector<double>{0.1, 5.0}, 0.0);
  for (int i = 0; i < 3; ++i) sel.record(std::vector<double>{5.0, 0.1}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(EwmaMse, RecordValidatesAndResets) {
  EwmaMseSelector sel(2, 0.5);
  EXPECT_THROW(sel.record(std::vector<double>{1.0}, 0.0), InvalidArgument);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 1u);
  sel.reset();
  EXPECT_EQ(sel.select(kWindow), 0u);
  EXPECT_EQ(sel.clone()->select(kWindow), 0u);
}

TEST(WindowedCumMse, NameIncludesWindow) {
  WindowedCumMseSelector sel(3, 2);
  EXPECT_EQ(sel.name(), "W-Cum.MSE(2)");
}

TEST(WindowedCumMse, OnlyRecentErrorsCount) {
  WindowedCumMseSelector sel(2, 2);
  sel.record(std::vector<double>{10.0, 0.0}, 0.0);  // member 0 bad
  sel.record(std::vector<double>{0.0, 0.1}, 0.0);
  sel.record(std::vector<double>{0.0, 0.1}, 0.0);
  // The window-2 view no longer contains member 0's disaster.
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(KnnSelector, RequiresFittedComponents) {
  EXPECT_THROW(KnnSelector(ml::Pca{}, ml::KnnClassifier{3}), InvalidArgument);
}

TEST(KnnSelector, ClassifiesWindowsThroughPca) {
  // Two window shapes: rising windows labeled 1, flat windows labeled 0.
  linalg::Matrix windows(40, 4);
  std::vector<std::size_t> labels(40);
  for (std::size_t i = 0; i < 40; ++i) {
    const bool rising = i % 2 == 0;
    for (std::size_t j = 0; j < 4; ++j) {
      windows(i, j) = rising ? static_cast<double>(j) +
                                   0.01 * static_cast<double>(i)
                             : 1.5 + 0.01 * static_cast<double>(i);
    }
    labels[i] = rising ? 1 : 0;
  }
  ml::Pca pca;
  pca.fit(windows, ml::PcaPolicy{2, 0.9});
  ml::KnnClassifier knn(3);
  knn.fit(pca.transform(windows), labels);
  KnnSelector sel(std::move(pca), std::move(knn));

  EXPECT_EQ(sel.select(std::vector<double>{0, 1, 2, 3}), 1u);
  EXPECT_EQ(sel.select(std::vector<double>{1.5, 1.5, 1.5, 1.5}), 0u);
  EXPECT_EQ(sel.name(), "LAR(kNN)");
  EXPECT_FALSE(sel.needs_hindsight());
  EXPECT_EQ(sel.clone()->select(std::vector<double>{0, 1, 2, 3}), 1u);
}

TEST(Selector, DefaultHindsightAvailableToAll) {
  StaticSelector sel(0);
  EXPECT_EQ(sel.select_hindsight(std::vector<double>{3.0, 1.0}, 1.2), 1u);
}

// -- NWS error trackers: validation, exact statistics, value semantics ------

TEST(CumulativeMse, NameIsThePaperLabel) {
  EXPECT_EQ(CumulativeMseSelector(3).name(), "Cum.MSE");
}

TEST(CumulativeMse, ErrorsAreRunningMeansOfSquaredErrors) {
  CumulativeMseSelector sel(2);
  EXPECT_EQ(sel.errors(), (std::vector<double>{0.0, 0.0}));
  sel.record(std::vector<double>{2.0, 1.0}, 0.0);
  sel.record(std::vector<double>{0.0, 3.0}, 0.0);
  // member 0: (4 + 0) / 2, member 1: (1 + 9) / 2.
  EXPECT_EQ(sel.errors(), (std::vector<double>{2.0, 5.0}));
}

TEST(CumulativeMse, NonFiniteForecastNeverWins) {
  // A member that once forecast NaN carries a NaN MSE from then on; the
  // argmin skips it however large the other members' errors are.
  CumulativeMseSelector sel(2);
  sel.record(std::vector<double>{std::nan(""), 100.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 1u);
  sel.record(std::vector<double>{0.0, 100.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 1u);
}

TEST(CumulativeMse, CloneIsIndependentOfTheOriginal) {
  CumulativeMseSelector sel(2);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  const auto copy = sel.clone();
  for (int i = 0; i < 10; ++i) sel.record(std::vector<double>{0.0, 9.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 0u);
  EXPECT_EQ(copy->select(kWindow), 1u);
}

TEST(EwmaMse, NameIncludesTheDecay) {
  EXPECT_EQ(EwmaMseSelector(2, 0.5).name(), "EWMA-MSE(0.500000)");
}

TEST(EwmaMse, ErrorsFollowTheDecayRecurrence) {
  // w <- decay * w + (1 - decay) * err^2, from w = 0.
  EwmaMseSelector sel(2, 0.5);
  sel.record(std::vector<double>{2.0, 1.0}, 0.0);
  EXPECT_EQ(sel.errors(), (std::vector<double>{2.0, 0.5}));
  sel.record(std::vector<double>{0.0, 3.0}, 0.0);
  EXPECT_EQ(sel.errors(), (std::vector<double>{1.0, 4.75}));
  EXPECT_EQ(sel.select(kWindow), 0u);
}

TEST(EwmaMse, CloneIsIndependentOfTheOriginal) {
  EwmaMseSelector sel(2, 0.5);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  const auto copy = sel.clone();
  for (int i = 0; i < 10; ++i) sel.record(std::vector<double>{0.0, 9.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 0u);
  EXPECT_EQ(copy->select(kWindow), 1u);
  EXPECT_EQ(copy->name(), sel.name());
}

TEST(WindowedCumMse, ValidatesPoolAndWindow) {
  EXPECT_THROW(WindowedCumMseSelector(0, 2), InvalidArgument);
  EXPECT_THROW(WindowedCumMseSelector(3, 0), InvalidArgument);
}

TEST(WindowedCumMse, ColdStartPicksLabelZero) {
  WindowedCumMseSelector sel(3, 2);
  EXPECT_EQ(sel.select(kWindow), 0u);
  EXPECT_EQ(sel.errors(), (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(WindowedCumMse, RecordValidatesForecastCount) {
  WindowedCumMseSelector sel(3, 2);
  EXPECT_THROW(sel.record(std::vector<double>{1.0, 2.0}, 0.0), InvalidArgument);
  EXPECT_THROW(sel.record(std::vector<double>{1.0, 2.0, 3.0, 4.0}, 0.0),
               InvalidArgument);
}

TEST(WindowedCumMse, ErrorsAreMeansOverTheWindowOnly) {
  WindowedCumMseSelector sel(2, 2);
  sel.record(std::vector<double>{3.0, 0.0}, 0.0);
  sel.record(std::vector<double>{1.0, 0.0}, 0.0);
  sel.record(std::vector<double>{2.0, 4.0}, 0.0);
  // member 0 keeps {1, 4}; member 1 keeps {0, 16}.
  EXPECT_EQ(sel.errors(), (std::vector<double>{2.5, 8.0}));
}

TEST(WindowedCumMse, ResetClearsHistory) {
  WindowedCumMseSelector sel(2, 3);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 1u);
  sel.reset();
  EXPECT_EQ(sel.select(kWindow), 0u);
  EXPECT_EQ(sel.errors(), (std::vector<double>{0.0, 0.0}));
}

TEST(WindowedCumMse, CloneIsIndependentOfTheOriginal) {
  WindowedCumMseSelector sel(2, 2);
  sel.record(std::vector<double>{9.0, 0.0}, 0.0);
  const auto copy = sel.clone();
  sel.record(std::vector<double>{0.0, 9.0}, 0.0);
  sel.record(std::vector<double>{0.0, 9.0}, 0.0);
  EXPECT_EQ(sel.select(kWindow), 0u);
  EXPECT_EQ(copy->select(kWindow), 1u);
  EXPECT_EQ(copy->name(), "W-Cum.MSE(2)");
}

// -- static / oracle ---------------------------------------------------------

TEST(StaticSelector, NameFallsBackToTheLabel) {
  StaticSelector sel(3);
  EXPECT_EQ(sel.name(), "STATIC(3)");
  EXPECT_EQ(sel.label(), 3u);
}

TEST(StaticSelector, SelectWeightsIsOneHotInsideThePoolOnly) {
  StaticSelector sel(2);
  EXPECT_EQ(sel.select_weights(kWindow, 4),
            (std::vector<double>{0.0, 0.0, 1.0, 0.0}));
  EXPECT_THROW((void)sel.select_weights(kWindow, 2), InvalidArgument);
}

TEST(OracleSelector, CloneCarriesTheLastBestLabel) {
  OracleSelector oracle;
  EXPECT_EQ(oracle.name(), "P-LAR");
  oracle.record(std::vector<double>{9.0, 8.0, 1.0}, 1.0);
  const auto copy = oracle.clone();
  oracle.reset();
  EXPECT_EQ(oracle.select(kWindow), 0u);
  EXPECT_EQ(copy->select(kWindow), 2u);
  EXPECT_TRUE(copy->needs_hindsight());
}

TEST(OracleSelector, RecordSkipsNonFiniteForecasts) {
  OracleSelector oracle;
  oracle.record(std::vector<double>{std::nan(""), 4.0, 2.0}, 1.0);
  EXPECT_EQ(oracle.select(kWindow), 2u);
  EXPECT_THROW(oracle.record(std::vector<double>{std::nan("")}, 1.0),
               InvalidArgument);
}

TEST(Selector, ErrorTrackersNeitherLearnNorNeedHindsight) {
  std::vector<std::unique_ptr<Selector>> selectors;
  selectors.push_back(std::make_unique<CumulativeMseSelector>(2));
  selectors.push_back(std::make_unique<EwmaMseSelector>(2, 0.9));
  selectors.push_back(std::make_unique<WindowedCumMseSelector>(2, 2));
  selectors.push_back(std::make_unique<StaticSelector>(1));
  for (auto& sel : selectors) {
    EXPECT_FALSE(sel->supports_online_learning()) << sel->name();
    EXPECT_FALSE(sel->needs_hindsight()) << sel->name();
    const std::size_t before = sel->select(kWindow);
    sel->learn(kWindow, 1 - before);  // a no-op for these selectors
    EXPECT_EQ(sel->select(kWindow), before) << sel->name();
  }
}

// -- k-NN --------------------------------------------------------------------

/// Rising windows labeled 1, flat windows labeled 0, through a 2-component
/// PCA (the same training set as ClassifiesWindowsThroughPca).
KnnSelector make_shape_selector() {
  linalg::Matrix windows(40, 4);
  std::vector<std::size_t> labels(40);
  for (std::size_t i = 0; i < 40; ++i) {
    const bool rising = i % 2 == 0;
    for (std::size_t j = 0; j < 4; ++j) {
      windows(i, j) = rising ? static_cast<double>(j) +
                                   0.01 * static_cast<double>(i)
                             : 1.5 + 0.01 * static_cast<double>(i);
    }
    labels[i] = rising ? 1 : 0;
  }
  ml::Pca pca;
  pca.fit(windows, ml::PcaPolicy{2, 0.9});
  ml::KnnClassifier knn(3);
  knn.fit(pca.transform(windows), labels);
  return KnnSelector(std::move(pca), std::move(knn));
}

TEST(KnnSelector, SelectWeightsAreNeighbourVoteShares) {
  KnnSelector sel = make_shape_selector();
  const std::vector<double> rising{0, 1, 2, 3};
  const auto weights = sel.select_weights(rising, 3);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_EQ(weights, (std::vector<double>{0.0, 1.0, 0.0}));
  // A pool too small for a training label is refused, not truncated.
  EXPECT_THROW((void)sel.select_weights(rising, 1), InvalidArgument);
}

TEST(KnnSelector, LearnGrowsTheIndexAndShiftsTheVote) {
  KnnSelector sel = make_shape_selector();
  EXPECT_TRUE(sel.supports_online_learning());
  const std::vector<double> falling{3, 2, 1, 0};
  const std::size_t before = sel.classifier().size();
  for (int i = 0; i < 3; ++i) sel.learn(falling, 2);
  EXPECT_EQ(sel.classifier().size(), before + 3);
  EXPECT_EQ(sel.select(falling), 2u);
  // The original shapes keep their labels.
  EXPECT_EQ(sel.select(std::vector<double>{0, 1, 2, 3}), 1u);
  EXPECT_EQ(sel.select(std::vector<double>{1.5, 1.5, 1.5, 1.5}), 0u);
}

}  // namespace
}  // namespace larp::selection
