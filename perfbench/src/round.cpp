// One round of a workload: build the engine, warm every series up to
// trained, run the fixed-work timed phase, then check the outputs and time
// a restart.  The traced run also calls each layer's public functions from
// here (the layer probes) so that every per-layer metric has a source.
#include "round.hpp"

#include <malloc.h>

#include <algorithm>
#include <stdexcept>

#include "core/lar_predictor.hpp"
#include "ml/framing.hpp"
#include "ml/knn.hpp"
#include "ml/pca.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "persist/snapshot.hpp"
#include "persist/wal.hpp"
#include "qa/quality_assuror.hpp"
#include "replication/log.hpp"
#include "serve/wal_codec.hpp"
#include "tsdb/prediction_db.hpp"

namespace perfbench {

namespace {

using larp::serve::PredictionEngine;

// An operation the engine refused: counted, then the round stops.
struct OpFailed : std::runtime_error {
  using std::runtime_error::runtime_error;
};

class Round {
 public:
  Round(const Params& p, const Plan& plan, const fs::path& dir, Tracer& tracer,
        OpCounts& ops)
      : p_(p),
        plan_(plan),
        dir_(dir),
        tracer_(tracer),
        ops_(ops),
        ledger_(plan.keys.size(), p.train_samples) {}

  RoundResult run(bool probes);

 private:
  // Calls fn as `n` operations of `kind`; a throw counts all n as failed.
  // `attempted` is false for the second half of a pipelined request,
  // whose items were counted when it was started.
  template <typename Fn>
  void op(const char* kind, std::size_t n, Fn&& fn, bool attempted = true) {
    OpCount& c = ops_[kind];
    if (attempted) c.attempted += n;
    try {
      fn();
    } catch (const std::exception& e) {
      c.failed += n;
      throw OpFailed(std::string(kind) + " failed: " + e.what());
    }
  }

  void setup();
  void timed_step(std::size_t t);
  void finish(RoundResult& r);
  void restart_check(RoundResult& r);
  void probes(RoundResult& r);

  // Next value of the series in `slot`, as the level/scale shifts leave it.
  double next_value(std::size_t slot) {
    const std::size_t id = slot_series_[slot];
    const double raw = plan_.values[id].at(cursor_[id]++);
    return 50.0 + scale_[slot] * (raw - 50.0) + offset_[slot];
  }
  void fill_values(std::size_t first, std::size_t last) {
    for (std::size_t s = first; s < last; ++s) obs_[s].value = next_value(s);
  }

  void predict_inproc(std::size_t first, std::size_t last, const char* span,
                      std::vector<double>* lat);
  void observe_inproc(std::size_t first, std::size_t last, const char* span,
                      std::vector<double>* lat);
  // Sends every slot in [first, last) over the wire in frames of kBatchKeys,
  // pipelined across the clients; per-frame latency goes to `lat`.
  void predict_wire(std::size_t first, std::size_t last, const char* span,
                    std::vector<double>* lat);
  void observe_wire(std::size_t first, std::size_t last, const char* span,
                    std::vector<double>* lat);
  void start_server();
  // Stops the server; with `r`, first records its per-layer figures.
  void stop_server(RoundResult* r = nullptr);

  void probe_core(RoundResult& r);
  void probe_codec(RoundResult& r);
  void probe_wal(RoundResult& r);
  void probe_replication(RoundResult& r);

  const Params& p_;
  const Plan& plan_;
  fs::path dir_;
  Tracer& tracer_;
  OpCounts& ops_;
  Ledger ledger_;

  std::unique_ptr<PredictionEngine> engine_;
  std::unique_ptr<larp::net::Server> server_;
  std::vector<std::unique_ptr<larp::net::Client>> clients_;
  std::int64_t server_started_ns_ = 0;

  std::vector<std::size_t> slot_series_;
  std::vector<std::size_t> cursor_;
  std::vector<double> offset_, scale_;
  std::vector<Observation> obs_;  // slot-ordered keys with the step's values
  std::vector<SeriesKey> keys_;   // slot-ordered keys
  std::vector<Prediction> out_;
  std::vector<std::vector<Prediction>> wire_out_;
  std::vector<double> predict_lat_, observe_lat_, snapshot_s_, pause_ms_;
  std::uint64_t request_ = 0;
  // Items the engine has logged so far (observe and predict, every round).
  std::uint64_t logged_ops() {
    return ops_["observe"].attempted + ops_["predict"].attempted;
  }
  struct WalMark {
    std::uint64_t bytes = 0, ops = 0;
  } wal_mark_;  // WAL size and logged items after the latest snapshot
};

void Round::predict_inproc(std::size_t first, std::size_t last,
                           const char* span, std::vector<double>* lat) {
  for (std::size_t i = first; i < last; i += kBatchKeys) {
    const std::size_t n = std::min(kBatchKeys, last - i);
    const std::span<const SeriesKey> keys(keys_.data() + i, n);
    const std::int64_t t0 = now_ns();
    op("predict", n, [&] { engine_->predict_into(keys, out_); });
    const std::int64_t t1 = now_ns();
    tracer_.record(span, t0, t1, ++request_, 0);
    if (lat) lat->push_back(static_cast<double>(t1 - t0) / 1e3);
    if (out_.size() != n) ledger_.fail("predict returned a wrong item count");
    for (std::size_t j = 0; j < std::min(n, out_.size()); ++j) {
      ledger_.on_predict(slot_series_[i + j], out_[j]);
    }
  }
}

void Round::observe_inproc(std::size_t first, std::size_t last,
                           const char* span, std::vector<double>* lat) {
  for (std::size_t i = first; i < last; i += kBatchKeys) {
    const std::size_t n = std::min(kBatchKeys, last - i);
    const std::span<const Observation> batch(obs_.data() + i, n);
    const std::int64_t t0 = now_ns();
    op("observe", n, [&] { engine_->observe(batch); });
    const std::int64_t t1 = now_ns();
    tracer_.record(span, t0, t1, ++request_, 0);
    if (lat) lat->push_back(static_cast<double>(t1 - t0) / 1e3);
    for (std::size_t j = 0; j < n; ++j) {
      ledger_.on_observe(slot_series_[i + j], batch[j].value);
    }
  }
}

// Restores timed per round; restart_s is their median.
constexpr std::size_t kRestores = 5;

// Probe steps of the request-overhead probe.  Each observes every series
// twice, so with the pipelined wire probe the in-process workloads use the
// 2 * kProbeSteps values the plan holds past the timed phase.
constexpr std::size_t kOverheadSteps = kProbeSteps / 2;

// Frames go out in groups of two per connection; replies are taken in the
// order the frames were started, which is each connection's reply order.
constexpr std::size_t kInFlightPerClient = 2;

void Round::predict_wire(std::size_t first, std::size_t last, const char* span,
                         std::vector<double>* lat) {
  const std::size_t group = kInFlightPerClient * clients_.size();
  wire_out_.resize(group);
  std::vector<std::uint64_t> ids(group);
  std::vector<std::int64_t> started(group);
  for (std::size_t g = first; g < last; g += group * kBatchKeys) {
    std::size_t frames = 0;
    for (std::size_t i = g; i < last && frames < group; i += kBatchKeys, ++frames) {
      const std::span<const SeriesKey> keys(keys_.data() + i,
                                            std::min(kBatchKeys, last - i));
      started[frames] = now_ns();
      op("predict", keys.size(), [&] {
        ids[frames] = clients_[frames % clients_.size()]->start_predict(keys);
      });
    }
    for (std::size_t f = 0; f < frames; ++f) {
      const std::size_t i = g + f * kBatchKeys;
      const std::size_t n = std::min(kBatchKeys, last - i);
      op("predict", n, [&] {
        clients_[f % clients_.size()]->finish_predict(ids[f], n, wire_out_[f]);
      }, false);
      const std::int64_t t1 = now_ns();
      tracer_.record(span, started[f], t1, ids[f],
                     static_cast<int>(f % clients_.size()) + 1);
      if (lat) lat->push_back(static_cast<double>(t1 - started[f]) / 1e3);
      if (wire_out_[f].size() != n) ledger_.fail("predict reply item count");
      for (std::size_t j = 0; j < std::min(n, wire_out_[f].size()); ++j) {
        ledger_.on_predict(slot_series_[i + j], wire_out_[f][j]);
      }
    }
  }
}

void Round::observe_wire(std::size_t first, std::size_t last, const char* span,
                         std::vector<double>* lat) {
  const std::size_t group = kInFlightPerClient * clients_.size();
  std::vector<std::uint64_t> ids(group);
  std::vector<std::int64_t> started(group);
  for (std::size_t g = first; g < last; g += group * kBatchKeys) {
    std::size_t frames = 0;
    for (std::size_t i = g; i < last && frames < group; i += kBatchKeys, ++frames) {
      const std::span<const Observation> batch(obs_.data() + i,
                                               std::min(kBatchKeys, last - i));
      started[frames] = now_ns();
      op("observe", batch.size(), [&] {
        ids[frames] = clients_[frames % clients_.size()]->start_observe(batch);
      });
    }
    for (std::size_t f = 0; f < frames; ++f) {
      const std::size_t i = g + f * kBatchKeys;
      const std::size_t n = std::min(kBatchKeys, last - i);
      std::uint64_t accepted = 0;
      op("observe", n, [&] {
        accepted = clients_[f % clients_.size()]->finish_observe(ids[f]);
      }, false);
      const std::int64_t t1 = now_ns();
      tracer_.record(span, started[f], t1, ids[f],
                     static_cast<int>(f % clients_.size()) + 1);
      if (lat) lat->push_back(static_cast<double>(t1 - started[f]) / 1e3);
      if (accepted != n) ledger_.fail("observe ack counts a wrong item count");
      for (std::size_t j = 0; j < n; ++j) {
        ledger_.on_observe(slot_series_[i + j], obs_[i + j].value);
      }
    }
  }
}

void Round::start_server() {
  larp::net::ServerConfig sc;
  sc.event_threads = 1;
  server_ = std::make_unique<larp::net::Server>(*engine_, sc);
  server_->start();
  for (int c = 0; c < 2; ++c) {
    clients_.push_back(
        std::make_unique<larp::net::Client>("127.0.0.1", server_->port()));
  }
  server_started_ns_ = now_ns();
}

void Round::stop_server(RoundResult* r) {
  if (r && server_) {
    // The server's batching and event-loop load while it served.
    const auto ss = server_->stats();
    double busy = 0.0;
    for (const auto& l : server_->loop_stats()) busy += l.busy_seconds;
    r->layer["net.frames_per_batch"] =
        static_cast<double>(ss.frames_in) /
        static_cast<double>(std::max<std::uint64_t>(
            1, ss.observe_batches + ss.predict_batches));
    r->layer["net.loop_busy_share"] = busy / seconds_since(server_started_ns_);
  }
  clients_.clear();
  if (server_) server_->stop();
}

void Round::setup() {
  const Scope span(tracer_, "round.setup");
  engine_ = std::make_unique<PredictionEngine>(engine_pool(),
                                               engine_config(p_, dir_ / "data"));
  // Warm-up: every series observes train_samples values.  Just before the
  // last one, each is asked for a forecast, which must not be ready yet.
  for (std::size_t w = 0; w < p_.train_samples; ++w) {
    if (w + 1 == p_.train_samples) {
      predict_inproc(0, p_.series, "setup.predict_batch", nullptr);
    }
    fill_values(0, p_.series);
    observe_inproc(0, p_.series, "setup.observe_batch", nullptr);
  }
  if (p_.wire) start_server();
}

void Round::timed_step(std::size_t t) {
  const Scope span(tracer_, "step", t);
  // Predict: every series, or (predict_every > 1) a rotating contiguous
  // block holding that share of the slots.
  const std::size_t block = p_.series / p_.predict_every;
  const std::size_t first = (t % p_.predict_every) * block;
  const std::size_t last = p_.predict_every == 1 ? p_.series : first + block;
  if (p_.wire) {
    predict_wire(first, last, "net.predict_frame", &predict_lat_);
  } else {
    predict_inproc(first, last, "serve.predict_batch", &predict_lat_);
  }
  fill_values(0, p_.series);
  if (p_.wire) {
    observe_wire(0, p_.series, "net.observe_frame", &observe_lat_);
  } else {
    observe_inproc(0, p_.series, "serve.observe_batch", &observe_lat_);
  }
  for (const auto& rep : plan_.replace[t]) {
    const std::size_t old = slot_series_[rep.slot];
    bool removed = false;
    const std::int64_t t0 = now_ns();
    op("erase", 1, [&] { removed = engine_->erase(keys_[rep.slot]); });
    tracer_.record("serve.erase", t0, now_ns(), ++request_, 0);
    if (!removed) ledger_.fail("erase of a live series reported no series");
    ledger_.on_erase(old);
    slot_series_[rep.slot] = rep.series;
    keys_[rep.slot] = plan_.keys[rep.series];
    obs_[rep.slot].key = keys_[rep.slot];
    offset_[rep.slot] = 0.0;
    scale_[rep.slot] = 1.0;
  }
  for (const auto& sh : plan_.shift[t]) {
    offset_[sh.slot] = sh.offset;
    scale_[sh.slot] = sh.scale;
  }
  if (p_.snapshot_every > 0 && (t + 1) % p_.snapshot_every == 0 &&
      t + 1 < p_.steps) {
    const std::int64_t t0 = now_ns();
    op("snapshot", 1, [&] { (void)engine_->snapshot(); });
    tracer_.record("persist.snapshot", t0, now_ns(), ++request_, 0);
    snapshot_s_.push_back(seconds_since(t0));
    pause_ms_.push_back(1e3 * engine_->stats().snapshot_max_pause_seconds);
    // The snapshot pruned the log; from here it only grows.
    wal_mark_ = {wal_bytes(dir_ / "data"), logged_ops()};
  }
}

RoundResult Round::run(bool with_probes) {
  RoundResult r;
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  slot_series_ = plan_.initial_slot;
  cursor_.assign(plan_.keys.size(), 0);
  offset_.assign(p_.series, 0.0);
  scale_.assign(p_.series, 1.0);
  keys_.clear();
  obs_.clear();
  for (std::size_t s = 0; s < p_.series; ++s) {
    keys_.push_back(plan_.keys[slot_series_[s]]);
    obs_.push_back({keys_.back(), 0.0});
  }

  const Scope round_span(tracer_, "round");
  try {
    // Free heap pages go back to the OS before each RSS reading, so the
    // growth counts memory the program holds, not what the allocator kept.
    malloc_trim(0);
    const double rss0 = rss_kb();
    const std::int64_t t0 = now_ns();
    setup();
    r.setup_s = seconds_since(t0);

    ledger_.set_timed(true);
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t steal0 = host_steal_ticks();
    const std::int64_t t1 = now_ns();
    {
      const Scope span(tracer_, "round.timed");
      for (std::size_t t = 0; t < p_.steps; ++t) timed_step(t);
    }
    r.timed_s = seconds_since(t1);
    r.cpu_s = process_cpu_seconds() - cpu0;
    r.steal_ticks = host_steal_ticks() - steal0;
    if (p_.durable) {
      // The engine's own log over the steps after the last periodic
      // snapshot: bytes on disk per logged observe or predict item.
      r.layer["persist.wal_bytes_per_obs"] =
          static_cast<double>(wal_bytes(dir_ / "data") - wal_mark_.bytes) /
          static_cast<double>(logged_ops() - wal_mark_.ops);
    }
    malloc_trim(0);
    const double rss1 = rss_kb();
    ledger_.set_timed(false);

    const double steps = static_cast<double>(p_.series * p_.steps);
    r.m["throughput_steps_per_s"] = steps / r.timed_s;
    r.m["cpu_us_per_step"] = 1e6 * r.cpu_s / steps;
    r.observe_us = observe_lat_;
    r.predict_us = predict_lat_;
    r.m["rss_kb_per_series"] = (rss1 - rss0) / static_cast<double>(p_.series);
    r.m["setup_s"] = r.setup_s;
    finish(r);
    if (with_probes) probes(r);
  } catch (const OpFailed& e) {
    r.errors.push_back(e.what());
  } catch (const std::exception& e) {
    r.errors.push_back(std::string("round aborted: ") + e.what());
  }
  for (const auto& e : ledger_.errors()) r.errors.push_back(e);
  stop_server();
  server_.reset();
  engine_.reset();
  // Hand freed pages back so the next round's RSS growth starts from the
  // same footing as this one's.
  malloc_trim(0);
  return r;
}

void Round::finish(RoundResult& r) {
  const Scope span(tracer_, "round.checks");
  if (p_.wire) stop_server(&r);
  const EngineStats st = engine_->stats();
  ledger_.check_stats(st);
  r.m["forecast_mse_vs_last"] = ledger_.mse_vs_last();
  r.retrains = st.retrains;
  r.audits = st.audits;
  r.layer["serve.lock_wait_s"] = st.lock_wait_seconds;
  r.layer["qa.retrains_per_audit"] =
      st.audits ? static_cast<double>(st.retrains) / static_cast<double>(st.audits)
                : 0.0;
  r.layer["tsdb.records_per_series"] = ledger_.records_per_series();
  r.layer["persist.fsyncs"] = static_cast<double>(st.wal_background_syncs);

  const fs::path data = dir_ / "data";
  if (!p_.durable) {
    // No periodic snapshots here: take one now so that the snapshot size
    // and the restart can be measured on every workload.
    fs::create_directories(data);
    const std::int64_t t0 = now_ns();
    op("snapshot", 1, [&] { (void)engine_->snapshot(data); });
    tracer_.record("persist.snapshot", t0, now_ns(), ++request_, 0);
    snapshot_s_.push_back(seconds_since(t0));
    pause_ms_.push_back(1e3 * engine_->stats().snapshot_max_pause_seconds);
  }
  r.m["snapshot_kb_per_series"] = static_cast<double>(newest_snapshot_bytes(data)) /
                                  1024.0 / static_cast<double>(p_.series);
  r.layer["persist.snapshot_s"] = median(snapshot_s_);
  r.layer["persist.snapshot_max_pause_ms"] = median(pause_ms_);
  restart_check(r);
}

void Round::restart_check(RoundResult& r) {
  // The durable workload ends the way a crash does: no final snapshot, the
  // WAL tail past the last periodic one is replayed.  Each restore runs on a
  // fresh copy so the live engine keeps its own files; the last restored
  // engine is compared with the live one.
  const fs::path data = dir_ / "data";
  const fs::path copy = dir_ / "restart";
  auto cfg = engine_config(p_, copy);
  std::unique_ptr<PredictionEngine> restored;
  std::vector<double> restore_s;
  for (std::size_t i = 0; i < kRestores; ++i) {
    restored.reset();
    fs::remove_all(copy);
    fs::copy(data, copy, fs::copy_options::recursive);
    const std::int64_t t0 = now_ns();
    op("restore", 1, [&] { restored = PredictionEngine::restore(engine_pool(), copy, cfg); });
    tracer_.record("persist.restore", t0, now_ns(), ++request_, 0);
    restore_s.push_back(seconds_since(t0));
  }
  r.m["restart_s"] = median(restore_s);
  r.layer["persist.restore_replay_s"] = r.m["restart_s"];
  compare_engines(*engine_, *restored, keys_, ledger_);
}

// -- layer probes (traced run only) ---------------------------------------------

void Round::probes(RoundResult& r) {
  const Scope span(tracer_, "round.probes");
  start_server();
  if (!p_.wire) {
    // The wire workload's pipelined frames on the final engine, for the
    // server's batching and event-loop load.
    const Scope s(tracer_, "probe.net");
    for (std::size_t t = 0; t < kProbeSteps; ++t) {
      predict_wire(0, p_.series, "probe.net.predict_frame", nullptr);
      fill_values(0, p_.series);
      observe_wire(0, p_.series, "probe.net.observe_frame", nullptr);
    }
    stop_server(&r);
    start_server();
  }
  {
    // Request overhead: each 64-key batch goes once in process and once as
    // the only frame in flight on one connection, so the wire time holds
    // the engine work of that batch alone.  Each series sees predict,
    // observe, predict, observe, as in the timed phase.  The order
    // alternates by step, and a predict is compared only where it came
    // first: the second predict of a batch finds its series in cache.
    const Scope s(tracer_, "probe.net.overhead");
    std::vector<double> in_p, in_o, wire_p, wire_o;
    for (std::size_t t = 0; t < kOverheadSteps; ++t) {
      const bool wire_first = t % 2 == 1;
      for (std::size_t i = 0; i < p_.series; i += kBatchKeys) {
        const std::size_t e = std::min(i + kBatchKeys, p_.series);
        for (int k = 0; k < 2; ++k) {
          if ((k == 0) == wire_first) {
            predict_wire(i, e, "probe.net.predict_single", k == 0 ? &wire_p : nullptr);
            fill_values(i, e);
            observe_wire(i, e, "probe.net.observe_single", &wire_o);
          } else {
            predict_inproc(i, e, "probe.serve.predict_batch", k == 0 ? &in_p : nullptr);
            fill_values(i, e);
            observe_inproc(i, e, "probe.serve.observe_batch", &in_o);
          }
        }
      }
    }
    r.layer["net.request_overhead_us"] =
        0.5 * ((median(wire_p) - median(in_p)) + (median(wire_o) - median(in_o)));
    // The engine's batch calls: the timed phase's in process, else these.
    const auto timed_or = [&](const char* name, const std::vector<double>& probe) {
      const auto v = tracer_.durations_us(name);
      return median(v.empty() ? probe : v);
    };
    r.layer["serve.predict_batch_us"] = timed_or("serve.predict_batch", in_p);
    r.layer["serve.observe_batch_us"] = timed_or("serve.observe_batch", in_o);
  }
  stop_server();
  if (!p_.durable) {
    r.layer["persist.restore_snapshot_s"] = r.m["restart_s"];
  } else {
    // Restore of a copy that holds only the newest snapshot, against the
    // full directory (snapshot plus WAL tail) timed as restart_s.
    const Scope s(tracer_, "probe.restore_snapshot_only");
    const fs::path only = dir_ / "snapshot_only";
    fs::remove_all(only);
    fs::create_directories(only);
    const auto snaps = larp::persist::list_snapshots(dir_ / "data");
    if (snaps.empty()) throw std::runtime_error("no snapshot to restore");
    fs::copy_file(snaps.back().path, only / snaps.back().path.filename());
    const std::int64_t t0 = now_ns();
    op("restore", 1, [&] {
      (void)PredictionEngine::restore(engine_pool(), only, engine_config(p_, only));
    });
    r.layer["persist.restore_snapshot_s"] = seconds_since(t0);
  }
  probe_codec(r);
  probe_wal(r);
  probe_core(r);
  probe_replication(r);
}

// Wire codec: encode, frame, split and decode one 64-key predict request
// and its reply, as client and server each do once per frame.
void Round::probe_codec(RoundResult& r) {
  const Scope s(tracer_, "probe.net.codec");
  const std::span<const SeriesKey> keys(keys_.data(), kBatchKeys);
  std::vector<Prediction> preds;
  engine_->predict_into(keys, preds);
  larp::persist::io::Writer body;
  std::vector<std::byte> wire;
  std::vector<SeriesKey> scratch;
  std::vector<Prediction> decoded;
  larp::net::FrameDecoder decoder;
  constexpr int kReps = 2000;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < kReps; ++i) {
    wire.clear();
    larp::net::encode_predict_request(body, static_cast<std::uint64_t>(i), keys);
    larp::net::append_frame(wire, body.bytes());
    larp::net::encode_predict_reply(body, static_cast<std::uint64_t>(i), preds);
    larp::net::append_frame(wire, body.bytes());
    decoder.feed(wire);
    std::span<const std::byte> frame;
    if (decoder.next(frame) != larp::net::FrameDecoder::Status::kFrame) {
      throw std::runtime_error("codec probe: request frame did not decode");
    }
    {
      larp::persist::io::Reader rd(frame);
      (void)larp::net::decode_header(rd);
      if (larp::net::decode_predict_keys(rd, scratch, 0) != keys.size()) {
        ledger_.fail("codec probe: decoded key count");
      }
    }
    if (decoder.next(frame) != larp::net::FrameDecoder::Status::kFrame) {
      throw std::runtime_error("codec probe: reply frame did not decode");
    }
    larp::persist::io::Reader rd(frame);
    (void)larp::net::decode_header(rd);
    larp::net::decode_predict_reply(rd, decoded);
    if (decoded.size() != preds.size()) ledger_.fail("codec probe: reply count");
  }
  r.layer["net.codec_us_per_frame"] = seconds_since(t0) * 1e6 / kReps;
}

// WalPayloadCodec and WalWriter on the workload's batches, split by shard as
// the engine splits them: each shard's part of a batch is one block, staged
// and committed as one group.  The codecs first encode the warm-up untimed,
// so the timed blocks carry no first-sight dictionary entries or raw first
// values, and predict batches are logged as the engine logs them.
void Round::probe_wal(RoundResult& r) {
  const Scope s(tracer_, "probe.persist.wal");
  const fs::path wal_dir = dir_ / "probe_wal";
  fs::remove_all(wal_dir);
  Params durable = p_;
  durable.durable = true;
  const auto cfg = engine_config(durable, wal_dir);
  std::vector<larp::serve::WalPayloadCodec> codecs(kShards);
  std::vector<std::unique_ptr<larp::persist::WalWriter>> writers;
  for (std::size_t sh = 0; sh < kShards; ++sh) {
    writers.push_back(std::make_unique<larp::persist::WalWriter>(
        wal_dir, static_cast<std::uint32_t>(sh), cfg.durability.wal));
  }
  std::vector<double> commit_us;
  std::int64_t codec_ns = 0;
  std::size_t timed_ops = 0;
  std::vector<std::vector<std::size_t>> by_shard(kShards);
  // Logs the slots [i, min(i + kBatchKeys, last)) at `step` of their input.
  const auto log_batch = [&](std::size_t i, std::size_t last, std::size_t step,
                             bool predict, bool timed) {
    const std::size_t n = std::min(kBatchKeys, last - i);
    for (auto& v : by_shard) v.clear();
    for (std::size_t j = i; j < i + n; ++j) {
      const std::size_t id = plan_.initial_slot[j];
      by_shard[std::hash<SeriesKey>{}(plan_.keys[id]) % kShards].push_back(id);
    }
    for (std::size_t sh = 0; sh < kShards; ++sh) {
      if (by_shard[sh].empty()) continue;
      const std::int64_t c0 = now_ns();
      codecs[sh].begin_block(by_shard[sh].size());
      for (std::size_t id : by_shard[sh]) {
        if (predict) {
          codecs[sh].add_predict(plan_.keys[id]);
        } else {
          codecs[sh].add_observe(plan_.keys[id], plan_.values[id][step]);
        }
      }
      const auto payload = codecs[sh].finish_block();
      if (!timed) continue;
      const std::int64_t c1 = now_ns();
      (void)writers[sh]->stage(payload, by_shard[sh].size());
      writers[sh]->commit();
      codec_ns += c1 - c0;
      commit_us.push_back(static_cast<double>(now_ns() - c1) / 1e3);
    }
    if (timed) timed_ops += n;
  };
  // Warm-up as setup() sends it, then kProbeSteps timed steps as
  // timed_step() sends them.
  for (std::size_t w = 0; w < p_.train_samples; ++w) {
    if (w + 1 == p_.train_samples) {
      for (std::size_t i = 0; i < p_.series; i += kBatchKeys) {
        log_batch(i, p_.series, w, true, false);
      }
    }
    for (std::size_t i = 0; i < p_.series; i += kBatchKeys) {
      log_batch(i, p_.series, w, false, false);
    }
  }
  const std::size_t block = p_.series / p_.predict_every;
  for (std::size_t t = 0; t < kProbeSteps; ++t) {
    const std::size_t step = p_.train_samples + t;
    const std::size_t first = (t % p_.predict_every) * block;
    const std::size_t last = p_.predict_every == 1 ? p_.series : first + block;
    for (std::size_t i = first; i < last; i += kBatchKeys) {
      log_batch(i, last, step, true, true);
    }
    for (std::size_t i = 0; i < p_.series; i += kBatchKeys) {
      log_batch(i, p_.series, step, false, true);
    }
  }
  for (auto& w : writers) w->sync();
  r.layer["serve.wal_codec_us_per_op"] =
      static_cast<double>(codec_ns) / 1e3 / static_cast<double>(timed_ops);
  r.layer["persist.wal_commit_us"] = median(commit_us);
  writers.clear();
  fs::remove_all(wal_dir);
}

// A standalone LarPredictor (and the layers it is built from) replaying
// sampled series of the workload.
void Round::probe_core(RoundResult& r) {
  const Scope s(tracer_, "probe.core");
  const auto cfg = engine_config(p_, {});
  const std::size_t m = cfg.lar.window;
  const std::size_t samples = std::min<std::size_t>(16, p_.series);
  std::vector<double> train_ms, retrain_ms, predict_us, observe_us, record_us,
      audit_us, select_us, pool_us, pca_ms, knn_ms;
  for (std::size_t k = 0; k < samples; ++k) {
    const std::size_t id = plan_.initial_slot[k * (p_.series / samples)];
    const auto& v = plan_.values[id];
    const SeriesKey& key = plan_.keys[id];
    larp::core::LarPredictor lp(engine_pool(), cfg.lar);
    larp::tsdb::PredictionDatabase db;
    {
      const Scope t(tracer_, "core.train");
      const std::int64_t t0 = now_ns();
      lp.train(std::span<const double>(v.data(), p_.train_samples));
      train_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    {
      const Scope t(tracer_, "core.replay");
      for (std::size_t i = p_.train_samples; i < p_.train_samples + p_.steps; ++i) {
        const auto ts = static_cast<larp::Timestamp>(i);
        const std::int64_t a = now_ns();
        const auto f = lp.predict_next();
        const std::int64_t b = now_ns();
        db.record_prediction(key, ts, f.value, f.label);
        const std::int64_t c = now_ns();
        lp.observe(v[i]);
        const std::int64_t d = now_ns();
        db.record_observation(key, ts, v[i]);
        const std::int64_t e = now_ns();
        predict_us.push_back(static_cast<double>(b - a) / 1e3);
        observe_us.push_back(static_cast<double>(d - c) / 1e3);
        record_us.push_back(static_cast<double>((c - b) + (e - d)) / 1e3);
      }
    }
    {
      larp::qa::QualityAssuror qa(db, cfg.quality);
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < 16; ++i) (void)qa.audit(key);
      audit_us.push_back(static_cast<double>(now_ns() - t0) / 1e3 / 16);
    }
    // Selection and the pool on the query window the predictor now holds.
    std::vector<double> window(m);
    const std::size_t end = p_.train_samples + p_.steps;
    for (std::size_t i = 0; i < m; ++i) {
      window[i] = lp.normalizer().transform(v[end - m + i]);
    }
    {
      auto sel = lp.selector().clone();
      auto pool = lp.pool().clone();
      std::vector<double> out;
      std::size_t worst = 0;  // labels must name a pool member
      constexpr int kReps = 512;
      const std::int64_t t0 = now_ns();
      for (int i = 0; i < kReps; ++i) worst = std::max(worst, sel->select(window));
      const std::int64_t t1 = now_ns();
      for (int i = 0; i < kReps; ++i) pool.predict_all_into(window, out);
      const std::int64_t t2 = now_ns();
      select_us.push_back(static_cast<double>(t1 - t0) / 1e3 / kReps);
      pool_us.push_back(static_cast<double>(t2 - t1) / 1e3 / kReps);
      if (worst >= pool.size() || out.size() != pool.size()) {
        ledger_.fail("selector or pool probe returned an invalid result");
      }
    }
    {
      // The classifier pieces of training, on the same training window.
      const std::span<const double> train(v.data() + end - p_.train_samples,
                                          p_.train_samples);
      const std::int64_t t0 = now_ns();
      lp.retrain(train);
      retrain_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
      const auto normalized = lp.normalizer().transform(train);
      const auto framed = larp::ml::frame_supervised(normalized, m);
      larp::ml::Pca pca;
      const std::int64_t t1 = now_ns();
      pca.fit(framed.windows, cfg.lar.pca_policy());
      const std::int64_t t2 = now_ns();
      larp::ml::KnnClassifier knn(cfg.lar.knn_k, cfg.lar.knn_backend);
      knn.fit(pca.transform(framed.windows), lp.training_labels());
      const std::int64_t t3 = now_ns();
      pca_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
      knn_ms.push_back(static_cast<double>(t3 - t2) / 1e6);
    }
  }
  r.layer["core.train_ms"] = median(train_ms);
  r.layer["core.retrain_ms"] = median(retrain_ms);
  r.layer["core.predict_next_us"] = median(predict_us);
  r.layer["core.observe_us"] = median(observe_us);
  r.layer["tsdb.record_us"] = median(record_us);
  r.layer["qa.audit_us"] = median(audit_us);
  r.layer["selection.select_us"] = median(select_us);
  r.layer["predictors.pool_predict_us"] = median(pool_us);
  r.layer["ml.pca_fit_ms"] = median(pca_ms);
  r.layer["ml.knn_build_ms"] = median(knn_ms);
}

// A durable leader fed with part of the workload, then a follower engine
// applying the leader's WAL as WalTailer reads it.
void Round::probe_replication(RoundResult& r) {
  const Scope s(tracer_, "probe.replication");
  const fs::path leader_dir = dir_ / "probe_leader";
  fs::remove_all(leader_dir);
  Params lp = p_;
  lp.durable = true;
  const std::size_t n = std::min<std::size_t>(256, p_.series);
  PredictionEngine leader(engine_pool(), engine_config(lp, leader_dir));
  std::vector<SeriesKey> keys;
  for (std::size_t j = 0; j < n; ++j) keys.push_back(plan_.keys[plan_.initial_slot[j]]);
  std::vector<Observation> batch;
  std::vector<Prediction> out;
  std::uint64_t wal0 = 0;
  for (std::size_t t = 0; t < p_.train_samples + 16; ++t) {
    if (t == p_.train_samples) wal0 = wal_bytes(leader_dir);
    if (t >= p_.train_samples) {
      for (std::size_t i = 0; i < n; i += kBatchKeys) {
        leader.predict_into(std::span<const SeriesKey>(keys.data() + i,
                                                       std::min(kBatchKeys, n - i)),
                            out);
      }
    }
    for (std::size_t i = 0; i < n; i += kBatchKeys) {
      batch.clear();
      for (std::size_t j = i; j < std::min(i + kBatchKeys, n); ++j) {
        batch.push_back({keys[j], plan_.values[plan_.initial_slot[j]][t]});
      }
      leader.observe(batch);
    }
  }
  if (!p_.durable) {
    // No WAL in the workload itself: the leader's log over its 16 steps of
    // predict and observe past the warm-up stands in.
    r.layer["persist.wal_bytes_per_obs"] =
        static_cast<double>(wal_bytes(leader_dir) - wal0) / static_cast<double>(2 * 16 * n);
  }
  auto fcfg = engine_config(p_, {});
  fcfg.role = larp::serve::EngineRole::kFollower;
  PredictionEngine follower(engine_pool(), fcfg);
  std::vector<larp::replication::TailedFrame> tailed;
  std::vector<larp::serve::ReplicatedFrame> frames;
  std::size_t applied = 0;
  std::int64_t apply_ns = 0;
  for (std::uint32_t sh = 0; sh < kShards; ++sh) {
    larp::replication::WalTailer tailer(leader_dir, sh, 0);
    while (tailer.poll(tailed, 1u << 20) == larp::replication::TailStatus::kFrames) {
      frames.clear();
      for (const auto& f : tailed) frames.push_back({f.seq, f.payload});
      const std::int64_t t0 = now_ns();
      follower.replicate_frames(sh, frames);
      apply_ns += now_ns() - t0;
      applied += frames.size();
    }
  }
  if (follower.wal_positions() != leader.wal_positions() ||
      follower.stats().observations != leader.stats().observations) {
    ledger_.fail("follower did not converge to the leader's WAL position");
  }
  r.layer["replication.apply_us_per_frame"] =
      applied ? static_cast<double>(apply_ns) / 1e3 / static_cast<double>(applied)
              : 0.0;
}

}  // namespace

RoundResult run_round(const Params& p, const Plan& plan, const fs::path& dir,
                      Tracer& tracer, OpCounts& ops, bool probes) {
  Round round(p, plan, dir, tracer, ops);
  return round.run(probes);
}

}  // namespace perfbench
