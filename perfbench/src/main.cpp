// larp_perfbench: end-to-end benchmark of the prediction engine.
//
//   larp_perfbench --workload <wire_steady|ingest_durable|train_churn>
//                  --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//
// Untraced (--trace 0): repeats fixed-work rounds until --seconds are used
// and reports each end-to-end metric as the median over rounds.  Traced
// (--trace 1): one untraced round, then one round with spans on plus the
// layer probes; reports the per-layer metrics and the tracing overhead, and
// writes the spans as Chrome trace-event JSON (opens in Perfetto).
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  A failed check exits 1.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "round.hpp"
#include "util/log.hpp"

using namespace perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_steps_per_s", "1/s"},
    {"cpu_us_per_step", "us"},
    {"observe_p50_us", "us"},
    {"observe_p90_us", "us"},
    {"predict_p50_us", "us"},
    {"predict_p90_us", "us"},
    {"forecast_mse_vs_last", "ratio"},
    {"rss_kb_per_series", "KB"},
    {"snapshot_kb_per_series", "KB"},
    {"restart_s", "s"},
};

constexpr Metric kPerLayer[] = {
    {"net.request_overhead_us", "us"},
    {"net.codec_us_per_frame", "us"},
    {"net.frames_per_batch", "frames/batch"},
    {"net.loop_busy_share", "ratio"},
    {"serve.observe_batch_us", "us"},
    {"serve.predict_batch_us", "us"},
    {"serve.lock_wait_s", "s"},
    {"serve.wal_codec_us_per_op", "us"},
    {"core.predict_next_us", "us"},
    {"core.observe_us", "us"},
    {"core.train_ms", "ms"},
    {"core.retrain_ms", "ms"},
    {"selection.select_us", "us"},
    {"predictors.pool_predict_us", "us"},
    {"ml.pca_fit_ms", "ms"},
    {"ml.knn_build_ms", "ms"},
    {"qa.audit_us", "us"},
    {"qa.retrains_per_audit", "ratio"},
    {"tsdb.record_us", "us"},
    {"tsdb.records_per_series", "count"},
    {"persist.wal_bytes_per_obs", "B"},
    {"persist.wal_commit_us", "us"},
    {"persist.fsyncs", "count"},
    {"persist.snapshot_s", "s"},
    {"persist.snapshot_max_pause_ms", "ms"},
    {"persist.restore_snapshot_s", "s"},
    {"persist.restore_replay_s", "s"},
    {"replication.apply_us_per_frame", "us"},
    {"trace.overhead_share", "ratio"},
};

// Pins the process, and so every thread it starts, to the highest-numbered
// CPU it may run on.  Client, event loop and engine then hand work over on
// one CPU instead of waking each other across CPUs, which on a host that
// steals CPU time made the wire workload's figures repeat several times more
// closely (see README.md).  Returns the CPU, or -1 when pinning failed.
int pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? c : -1;
  }
  return -1;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: larp_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               msg);
  std::exit(2);
}

template <std::size_t N>
void print_json(bool correct, const OpCounts& ops, const Metric (&metrics)[N],
                const std::map<std::string, double>& values) {
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& [kind, c] : ops) {
    attempted += c.attempted;
    failed += c.failed;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& m : metrics) {
    const auto it = values.find(m.name);
    const double v = it == values.end() ? std::nan("") : it->second;
    char num[32] = "null";
    if (std::isfinite(v)) std::snprintf(num, sizeof num, "%.17g", v);
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
                m.name, num, m.unit);
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out = ".bench_out";
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::atoll(v);
    else if (a == "--seconds") seconds = std::atof(v);
    else if (a == "--trace") trace = std::atoi(v);
    else if (a == "--out") out = v;
    else usage(("unknown option " + a).c_str());
  }
  if (workload.empty() || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    usage("--workload, --seed >= 0, --seconds > 0 and --trace 0|1 are required");
  }
  larp::log::set_level(larp::log::Level::Warn);
  const int cpu = pin_to_one_cpu();

  Params p;
  try {
    p = workload_params(workload);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  const std::int64_t gen0 = now_ns();
  const Plan plan = make_plan(p, static_cast<std::uint64_t>(seed));
  std::printf("workload %s: %zu series (%zu ids), %zu families, %zu timed steps, "
              "train_samples %zu, QA threshold %.1f; inputs made in %.2f s\n",
              p.name.c_str(), p.series, plan.keys.size(), plan.family_names.size(),
              p.steps, p.train_samples, p.qa_threshold, seconds_since(gen0));

  const fs::path dir = fs::path(out) / p.name;
  const fs::path round_dir = dir / "round";
  fs::create_directories(dir);
  Tracer tracer;
  OpCounts ops;
  for (const char* kind : {"observe", "predict", "erase", "snapshot", "restore"}) {
    ops[kind];
  }
  std::vector<RoundResult> rounds;
  const std::int64_t run0 = now_ns();
  if (trace == 0) {
    for (;;) {
      rounds.push_back(run_round(p, plan, round_dir, tracer, ops, false));
      if (!rounds.back().errors.empty()) break;
      const double elapsed = seconds_since(run0);
      if (elapsed + elapsed / static_cast<double>(rounds.size()) > seconds) break;
    }
  } else {
    rounds.push_back(run_round(p, plan, round_dir, tracer, ops, false));
    if (rounds.back().errors.empty()) {
      tracer.enable(true);
      rounds.push_back(run_round(p, plan, round_dir, tracer, ops, true));
      tracer.enable(false);
    }
  }
  fs::remove_all(round_dir);

  bool correct = true;
  double timed = 0.0, cpu_s = 0.0;
  std::uint64_t steal = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const auto& r = rounds[i];
    for (const auto& e : r.errors) std::fprintf(stderr, "check failed: %s\n", e.c_str());
    correct = correct && r.errors.empty();
    timed += r.timed_s;
    cpu_s += r.cpu_s;
    steal += r.steal_ticks;
    std::printf("round %zu: setup %.3f s, timed %.3f s, cpu %.3f s, steal %llu ticks, "
                "retrains %zu / audits %zu, observe p50/p99 %.1f/%.1f us, "
                "predict p50/p99 %.1f/%.1f us, rss %.2f KB/series, restart %.4f s\n",
                i, r.setup_s, r.timed_s, r.cpu_s,
                static_cast<unsigned long long>(r.steal_ticks), r.retrains, r.audits,
                quantile(r.observe_us, 0.5), quantile(r.observe_us, 0.99),
                quantile(r.predict_us, 0.5), quantile(r.predict_us, 0.99),
                r.m.count("rss_kb_per_series") ? r.m.at("rss_kb_per_series") : 0.0,
                r.m.count("restart_s") ? r.m.at("restart_s") : 0.0);
  }
  for (const auto& [kind, c] : ops) {
    std::printf("ops %-8s attempted %llu failed %llu\n", kind.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
  }
  std::printf("host: nproc %u, pinned to cpu %d, timed phases %.3f s wall, %.3f s process CPU, "
              "%llu steal ticks\n",
              std::thread::hardware_concurrency(), cpu, timed, cpu_s,
              static_cast<unsigned long long>(steal));

  std::map<std::string, double> values;
  if (trace == 0) {
    for (const auto& m : kEndToEnd) {
      std::vector<double> v;
      for (const auto& r : rounds) {
        if (const auto it = r.m.find(m.name); it != r.m.end()) v.push_back(it->second);
      }
      if (!v.empty()) values[m.name] = median(v);
    }
    // Memory growth is taken from the first round, the one a freshly started
    // process pays; later rounds reuse one-time allocations (per-thread
    // arenas and scratch) and read lower.
    if (!rounds.empty() && rounds[0].m.count("rss_kb_per_series")) {
      values["rss_kb_per_series"] = rounds[0].m.at("rss_kb_per_series");
    }
    // Latency percentiles pool every batch of every round.  The tail is
    // reported at p90: p99 did not repeat within a tenth from run to run on
    // the reference host (README.md), so it is printed above but not kept.
    std::vector<double> observe, predict;
    for (const auto& r : rounds) {
      observe.insert(observe.end(), r.observe_us.begin(), r.observe_us.end());
      predict.insert(predict.end(), r.predict_us.begin(), r.predict_us.end());
    }
    values["observe_p50_us"] = quantile(observe, 0.50);
    values["observe_p90_us"] = quantile(observe, 0.90);
    values["predict_p50_us"] = quantile(predict, 0.50);
    values["predict_p90_us"] = quantile(predict, 0.90);
    std::printf("latency samples: %zu observe, %zu predict batches; "
                "observe p95/p99 %.1f/%.1f us, predict p95/p99 %.1f/%.1f us\n",
                observe.size(), predict.size(), quantile(observe, 0.95),
                quantile(observe, 0.99), quantile(predict, 0.95), quantile(predict, 0.99));
    print_json(correct, ops, kEndToEnd, values);
  } else {
    if (rounds.size() == 2) {
      values = rounds[1].layer;
      values["trace.overhead_share"] = rounds[1].timed_s / rounds[0].timed_s - 1.0;
      tracer.print_table(stdout);
      const fs::path trace_path = dir / "trace.json";
      tracer.write_chrome(trace_path);
      std::printf("trace: %s (%zu spans); tracing overhead %.1f%% of the timed phase\n",
                  trace_path.c_str(), tracer.spans().size(),
                  100.0 * values["trace.overhead_share"]);
    }
    print_json(correct, ops, kPerLayer, values);
  }
  std::fflush(stdout);
  return correct ? 0 : 1;
}
