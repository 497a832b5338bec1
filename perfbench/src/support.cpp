#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "predictors/pool.hpp"
#include "tracegen/catalog.hpp"
#include "util/rng.hpp"

namespace perfbench {

// -- workloads ----------------------------------------------------------------

Params workload_params(const std::string& name) {
  Params p;
  p.name = name;
  if (name == "wire_steady") {
    p.series = 2048;
    p.train_samples = 144;
    p.steps = 96;
    p.qa_threshold = 400.0;
    p.wire = true;
  } else if (name == "ingest_durable") {
    p.series = 2048;
    p.train_samples = 144;
    p.steps = 96;
    p.qa_threshold = 400.0;
    p.durable = true;
    p.predict_every = 4;
    p.snapshot_every = 24;
  } else if (name == "train_churn") {
    p.series = 2048;
    p.train_samples = 144;
    p.steps = 192;
    p.qa_threshold = 150.0;
    p.churn_per_step = 16;
    p.shift_per_step = 16;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return p;
}

larp::serve::EngineConfig engine_config(const Params& p, const fs::path& dir) {
  larp::serve::EngineConfig c;
  c.lar.window = 5;
  c.lar.pca_components = 0;
  c.lar.pca_min_variance = 0.85;
  c.quality.mse_threshold = p.qa_threshold;
  c.shards = kShards;
  c.threads = kEngineThreads;
  c.train_samples = p.train_samples;
  c.history_capacity = 2 * p.train_samples;
  if (p.durable) {
    c.durability.data_dir = dir;
    c.durability.wal.mode = larp::persist::DurabilityMode::Async;
    c.durability.wal.fsync = larp::persist::FsyncPolicy::EveryN;
    c.durability.wal.fsync_every_n = 4096;
    c.durability.wal.fsync_interval = std::chrono::milliseconds(50);
  }
  return c;
}

larp::predictors::PredictorPool engine_pool() {
  return larp::predictors::make_paper_pool(5);
}

// -- inputs -------------------------------------------------------------------

namespace {

struct Family {
  std::string vm, metric;
};

// Every catalog (vm, metric) model whose trace is not constant: an idle
// device's flat line has nothing to forecast.
std::vector<Family> live_families() {
  std::vector<Family> out;
  for (const auto& vm : larp::tracegen::paper_vms()) {
    for (const auto& metric : larp::tracegen::paper_metrics()) {
      const auto t = larp::tracegen::make_trace(vm.vm_id, metric, 1, 64);
      const auto [lo, hi] = std::minmax_element(t.values.begin(), t.values.end());
      if (*hi > *lo) out.push_back({vm.vm_id, metric});
    }
  }
  return out;
}

// One catalog trace, mapped affinely to mean 50 and standard deviation 10 so
// that a single raw-unit QA threshold means the same for every family.
std::vector<double> scaled_trace(const Family& f, std::uint64_t seed,
                                 std::size_t length) {
  auto v = larp::tracegen::make_trace(f.vm, f.metric, seed, length).values;
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0.0;
  for (double x : v) var += (x - mean) * (x - mean);
  const double sd = std::sqrt(var / static_cast<double>(v.size()));
  for (double& x : v) x = sd > 0.0 ? 50.0 + 10.0 * (x - mean) / sd : 50.0;
  return v;
}

}  // namespace

Plan make_plan(const Params& p, std::uint64_t seed) {
  Plan plan;
  const auto families = live_families();
  for (const auto& f : families) plan.family_names.push_back(f.vm + "." + f.metric);
  larp::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);

  const auto add_series = [&](std::size_t length) {
    const std::size_t id = plan.keys.size();
    const std::size_t fam = (id + seed) % families.size();
    char host[16];
    std::snprintf(host, sizeof host, "h%06zu", id);
    plan.keys.push_back({host,
                         larp::tracegen::device_of_metric(families[fam].metric),
                         families[fam].vm + "." + families[fam].metric});
    plan.values.push_back(scaled_trace(families[fam], rng(), length));
    return id;
  };

  // Input beyond the timed phase feeds the restart check and the probes.
  const std::size_t tail = 2 * kProbeSteps + 1;
  for (std::size_t i = 0; i < p.series; ++i) {
    plan.initial_slot.push_back(add_series(p.train_samples + p.steps + tail));
  }
  plan.replace.resize(p.steps);
  plan.shift.resize(p.steps);
  for (std::size_t t = 0; t < p.steps; ++t) {
    std::vector<std::size_t> slots(p.series);
    for (std::size_t i = 0; i < p.series; ++i) slots[i] = i;
    // Distinct slots per step: a partial Fisher-Yates draw.
    const std::size_t draws = p.churn_per_step + p.shift_per_step;
    for (std::size_t i = 0; i < draws && i < p.series; ++i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::int64_t>(i),
                          static_cast<std::int64_t>(p.series) - 1));
      std::swap(slots[i], slots[j]);
    }
    for (std::size_t i = 0; i < p.churn_per_step; ++i) {
      plan.replace[t].push_back({slots[i], add_series(p.steps - t + tail)});
    }
    for (std::size_t i = 0; i < p.shift_per_step; ++i) {
      const double sign = rng.uniform() < 0.5 ? -1.0 : 1.0;
      plan.shift[t].push_back({slots[p.churn_per_step + i],
                               sign * rng.uniform(20.0, 40.0),
                               rng.uniform(1.5, 3.0)});
    }
  }
  return plan;
}

// -- output checks --------------------------------------------------------------

Ledger::Ledger(std::size_t series_ids, std::size_t train_samples)
    : s_(series_ids), train_samples_(train_samples) {}

void Ledger::fail(std::string message) {
  if (errors_.size() < 20) errors_.push_back(std::move(message));
}

void Ledger::on_predict(std::size_t id, const Prediction& p) {
  Entry& e = s_[id];
  ++predictions_;
  const bool expect_ready = e.alive && e.observed >= train_samples_;
  if (p.ready != expect_ready) {
    fail("series " + std::to_string(id) + " after " +
         std::to_string(e.observed) + " observations: ready=" +
         std::to_string(p.ready) + ", expected " + std::to_string(expect_ready));
    return;
  }
  if (!p.ready) return;
  if (!std::isfinite(p.value) || p.label >= 3) {
    fail("series " + std::to_string(id) + ": malformed forecast");
    return;
  }
  if (!e.pending) ++e.recorded;
  e.pending = true;
  e.forecast = p.value;
}

void Ledger::on_observe(std::size_t id, double value) {
  Entry& e = s_[id];
  e.alive = true;
  ++observations_;
  if (e.pending) {
    const long double err = static_cast<long double>(e.forecast) - value;
    ++resolved_;
    abs_sum_ += std::fabs(err);
    sq_sum_ += err * err;
    if (timed_) {
      const long double last_err = static_cast<long double>(e.last) - value;
      timed_sq_ += err * err;
      timed_last_sq_ += last_err * last_err;
    }
    e.pending = false;
  }
  if (++e.observed == train_samples_) ++trains_;
  e.last = value;
}

void Ledger::on_erase(std::size_t id) {
  s_[id] = Entry{};
  ++erases_;
}

double Ledger::mse_vs_last() const {
  return timed_last_sq_ > 0 ? static_cast<double>(timed_sq_ / timed_last_sq_)
                            : 0.0;
}

double Ledger::records_per_series() const {
  std::size_t live = 0, recorded = 0;
  for (const auto& e : s_) {
    if (!e.alive) continue;
    ++live;
    recorded += e.recorded;
  }
  return live ? static_cast<double>(recorded) / static_cast<double>(live) : 0.0;
}

void Ledger::check_stats(const EngineStats& st) {
  std::size_t live = 0, trained = 0;
  for (const auto& e : s_) {
    if (!e.alive) continue;
    ++live;
    if (e.observed >= train_samples_) ++trained;
  }
  const auto expect = [&](const char* what, std::size_t got, std::size_t want) {
    if (got != want) {
      fail(std::string("stats.") + what + " = " + std::to_string(got) +
           ", benchmark counted " + std::to_string(want));
    }
  };
  expect("observations", st.observations, observations_);
  expect("predictions", st.predictions, predictions_);
  expect("resolved", st.resolved, resolved_);
  expect("trains", st.trains, trains_);
  expect("erases", st.erases, erases_);
  expect("series", st.series, live);
  expect("trained_series", st.trained_series, trained);
  if (resolved_ == 0) return;
  const auto close = [&](const char* what, double got, long double want) {
    const long double tol = 1e-9L * std::max<long double>(1.0L, std::fabs(want));
    if (!(std::fabs(static_cast<long double>(got) - want) <= tol)) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "stats." << what << " = " << got << ", benchmark computed "
          << static_cast<double>(want);
      fail(msg.str());
    }
  };
  const auto n = static_cast<long double>(resolved_);
  close("mean_absolute_error", st.mean_absolute_error, abs_sum_ / n);
  close("mean_squared_error", st.mean_squared_error, sq_sum_ / n);
}

void compare_engines(larp::serve::PredictionEngine& live,
                     larp::serve::PredictionEngine& restored,
                     const std::vector<SeriesKey>& keys, Ledger& ledger) {
  const EngineStats a = live.stats(), b = restored.stats();
  const auto same = [&](const char* what, std::size_t x, std::size_t y) {
    if (x != y) {
      ledger.fail(std::string("restored stats.") + what + " = " +
                  std::to_string(y) + ", live engine has " + std::to_string(x));
    }
  };
  same("observations", a.observations, b.observations);
  same("predictions", a.predictions, b.predictions);
  same("resolved", a.resolved, b.resolved);
  same("trains", a.trains, b.trains);
  same("retrains", a.retrains, b.retrains);
  same("audits", a.audits, b.audits);
  same("erases", a.erases, b.erases);
  same("series", a.series, b.series);
  same("trained_series", a.trained_series, b.trained_series);
  if (b.observations != ledger.observations()) {
    ledger.fail("restored engine holds " + std::to_string(b.observations) +
                " observations; " + std::to_string(ledger.observations()) +
                " were acknowledged");
  }
  if (std::bit_cast<std::uint64_t>(a.mean_squared_error) !=
      std::bit_cast<std::uint64_t>(b.mean_squared_error)) {
    ledger.fail("restored MSE differs from the live engine's");
  }
  std::vector<Prediction> pa, pb;
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < keys.size(); i += kBatchKeys) {
    const std::span<const SeriesKey> batch(
        keys.data() + i, std::min(kBatchKeys, keys.size() - i));
    live.predict_into(batch, pa);
    restored.predict_into(batch, pb);
    for (std::size_t j = 0; j < batch.size(); ++j) {
      const bool same_bits =
          pa[j].ready == pb[j].ready && pa[j].label == pb[j].label &&
          std::bit_cast<std::uint64_t>(pa[j].value) ==
              std::bit_cast<std::uint64_t>(pb[j].value) &&
          std::bit_cast<std::uint64_t>(pa[j].uncertainty) ==
              std::bit_cast<std::uint64_t>(pb[j].uncertainty);
      if (!same_bits) ++mismatched;
    }
  }
  if (mismatched > 0) {
    ledger.fail(std::to_string(mismatched) +
                " restored forecasts differ from the live engine's");
  }
}

// -- tracing ------------------------------------------------------------------

std::int64_t Tracer::begin(const char* name, std::uint64_t request, int lane) {
  if (!on_) return -1;
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, now_ns(), 0, parent, request, lane});
  open_.push_back(static_cast<std::int64_t>(spans_.size() - 1));
  return open_.back();
}

void Tracer::end(std::int64_t index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::record(const char* name, std::int64_t start_ns,
                    std::int64_t end_ns, std::uint64_t request, int lane) {
  if (!on_) return;
  const std::int64_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({name, start_ns, end_ns, parent, request, lane});
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return out;
}

void Tracer::print_table(std::FILE* out) const {
  // Self time: the span minus the union of its children's intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(spans_.size());
  for (const auto& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  struct Row {
    std::size_t count = 0;
    double total_ms = 0, self_ms = 0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& k = kids[i];
    std::sort(k.begin(), k.end());
    std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
    for (const auto& [lo, hi] : k) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const std::int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total_ms += static_cast<double>(dur) / 1e6;
    r.self_ms += static_cast<double>(std::max<std::int64_t>(0, dur - covered)) / 1e6;
  }
  std::fprintf(out, "%-34s %9s %12s %12s %12s\n", "span", "count", "total_ms",
               "self_ms", "mean_us");
  for (const auto& [name, r] : rows) {
    std::fprintf(out, "%-34s %9zu %12.3f %12.3f %12.3f\n", name.c_str(), r.count,
                 r.total_ms, r.self_ms, 1e3 * r.total_ms / static_cast<double>(r.count));
  }
}

void Tracer::write_chrome(const fs::path& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write " + path.string());
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%lld,"
                 "\"request\":%llu}}\n",
                 i ? "," : "", s.name, s.lane + 1,
                 static_cast<double>(s.start_ns - t0) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

// -- measurement helpers --------------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double rss_kb() {
  std::ifstream in("/proc/self/statm");
  std::size_t size = 0, resident = 0;
  in >> size >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / 1024.0;
}

std::uint64_t host_steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (auto& x : v) in >> x;
  return v[7];
}

std::uint64_t wal_bytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (std::uint32_t sh = 0; sh < kShards; ++sh) {
    for (const auto& seg : larp::persist::list_wal_segments(dir, sh)) {
      total += fs::file_size(seg.path);
    }
  }
  return total;
}

std::uint64_t newest_snapshot_bytes(const fs::path& dir) {
  const auto snaps = larp::persist::list_snapshots(dir);
  return snaps.empty() ? 0 : fs::file_size(snaps.back().path);
}

}  // namespace perfbench
