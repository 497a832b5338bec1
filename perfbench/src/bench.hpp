// Shared pieces of the end-to-end benchmark: workload parameters, the
// seeded input plan, the ledger that checks the engine's outputs against the
// benchmark's own bookkeeping, the span tracer, and small host probes.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "serve/prediction_engine.hpp"
#include "tsdb/series.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using larp::serve::EngineStats;
using larp::serve::Observation;
using larp::serve::Prediction;
using larp::tsdb::SeriesKey;

// -- workloads ----------------------------------------------------------------

struct Params {
  std::string name;
  std::size_t series = 0;         // live series (slots) at any time
  std::size_t train_samples = 0;  // observations before a series trains
  std::size_t steps = 0;          // timed steps per round (fixed work)
  double qa_threshold = 0.0;      // QA retrain threshold, raw units
  bool wire = false;              // drive the engine over loopback TCP
  bool durable = false;           // WAL + periodic snapshots on
  std::size_t predict_every = 1;  // each series is predicted every n steps
  std::size_t snapshot_every = 0; // timed steps between periodic snapshots
  std::size_t churn_per_step = 0; // series erased and replaced per step
  std::size_t shift_per_step = 0; // series whose level/scale shifts per step
};

inline constexpr std::size_t kBatchKeys = 64;    // keys per request frame
// One engine worker: with more, the engine fans batches out through
// ThreadPool::parallel_for, whose completion handshake can touch its stack
// frame after the caller has returned (see CHANGES.md).
inline constexpr std::size_t kEngineThreads = 1;
inline constexpr std::size_t kShards = 8;
inline constexpr std::size_t kProbeSteps = 8;    // extra input for probes

[[nodiscard]] Params workload_params(const std::string& name);
[[nodiscard]] larp::serve::EngineConfig engine_config(const Params& p,
                                                      const fs::path& dir);
[[nodiscard]] larp::predictors::PredictorPool engine_pool();

// -- inputs -------------------------------------------------------------------

// Everything a round sends, made from the seed before any timing starts.
// Rounds of one run replay the same plan.
struct Plan {
  std::vector<SeriesKey> keys;             // by series id
  std::vector<std::vector<double>> values; // by series id, by own sample
  // Initial series of each slot; churn replaces slot contents over time.
  std::vector<std::size_t> initial_slot;
  struct Replace {
    std::size_t slot, series;
  };
  struct Shift {
    std::size_t slot;
    double offset, scale;
  };
  std::vector<std::vector<Replace>> replace;  // per timed step
  std::vector<std::vector<Shift>> shift;      // per timed step
  std::vector<std::string> family_names;
};

[[nodiscard]] Plan make_plan(const Params& p, std::uint64_t seed);

// -- output checks --------------------------------------------------------------

// The benchmark's own account of what it sent and received.  The engine's
// stats() must agree with it, and every prediction must be ready exactly
// when the series has seen train_samples observations.
class Ledger {
 public:
  Ledger(std::size_t series_ids, std::size_t train_samples);

  void on_predict(std::size_t id, const Prediction& p);
  void on_observe(std::size_t id, double value);
  void on_erase(std::size_t id);
  void set_timed(bool timed) { timed_ = timed; }

  // Compares the engine's counters with the ledger; failures go to errors().
  void check_stats(const EngineStats& st);
  void fail(std::string message);

  [[nodiscard]] const std::vector<std::string>& errors() const { return errors_; }
  [[nodiscard]] std::size_t observations() const { return observations_; }
  [[nodiscard]] double mse_vs_last() const;
  // Forecasts recorded per live series over its life.
  [[nodiscard]] double records_per_series() const;

 private:
  struct Entry {
    std::size_t observed = 0;
    std::size_t recorded = 0;
    bool alive = false;
    bool pending = false;
    double forecast = 0.0;
    double last = 0.0;
  };
  std::vector<Entry> s_;
  std::size_t train_samples_;
  bool timed_ = false;
  std::size_t observations_ = 0, predictions_ = 0, resolved_ = 0, trains_ = 0,
              erases_ = 0;
  long double abs_sum_ = 0, sq_sum_ = 0;
  long double timed_sq_ = 0, timed_last_sq_ = 0;
  std::vector<std::string> errors_;
};

// Bit-for-bit comparison of two engines' counters and next forecasts.
void compare_engines(larp::serve::PredictionEngine& live,
                     larp::serve::PredictionEngine& restored,
                     const std::vector<SeriesKey>& keys, Ledger& ledger);

// -- failure accounting ---------------------------------------------------------

struct OpCount {
  std::uint64_t attempted = 0, failed = 0;
};
// Keyed by operation kind: observe, predict, erase, snapshot, restore.
using OpCounts = std::map<std::string, OpCount>;

// -- tracing ------------------------------------------------------------------

// Spans recorded from the benchmark's own code around calls into each layer.
// Kept in memory; written as Chrome trace-event JSON when the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns, end_ns;
    std::int64_t parent;  // index of the enclosing span, -1 for none
    std::uint64_t request;
    int lane;             // display row (pipelined frames overlap)
  };

  // Starts a span; returns its index, or -1 when tracing is off.
  std::int64_t begin(const char* name, std::uint64_t request = 0, int lane = 0);
  void end(std::int64_t index);
  // Records an already-timed span under the innermost open span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::uint64_t request, int lane);

  void enable(bool on) { on_ = on; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Durations (us) of every span with this name.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  // Per-name count, total and self time (span minus its children).
  void print_table(std::FILE* out) const;
  void write_chrome(const fs::path& path) const;

 private:
  bool on_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

// RAII span over a scope.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t request = 0)
      : t_(t), i_(t.begin(name, request)) {}
  ~Scope() { t_.end(i_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int64_t i_;
};

// -- measurement helpers --------------------------------------------------------

[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_since(std::int64_t start_ns);
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double process_cpu_seconds();
[[nodiscard]] double rss_kb();
[[nodiscard]] std::uint64_t host_steal_ticks();
// Bytes of every shard's WAL segments in dir.
[[nodiscard]] std::uint64_t wal_bytes(const fs::path& dir);
// Size of the newest snapshot file in dir (0 when none).
[[nodiscard]] std::uint64_t newest_snapshot_bytes(const fs::path& dir);

}  // namespace perfbench
