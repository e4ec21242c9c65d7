#include "dist/dist_backend.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/online_analysis.hpp"
#include "core/quantum.hpp"
#include "dist/model_codec.hpp"
#include "dist/net_channel.hpp"
#include "dist/wire.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace dist {

namespace {

using steady_clock = std::chrono::steady_clock;

/// One simulated host's identity and fault/heterogeneity state, shared by
/// its worker threads.
struct host_state {
  unsigned id = 0;
  double speed = 1.0;  ///< relative speed; 0.25 = every quantum takes 4x
  double kill_at = std::numeric_limits<double>::infinity();
  std::atomic<bool> dead{false};
  std::mutex mu;           ///< guards sim_executed
  double sim_executed = 0.0;  ///< simulated seconds advanced by this host
};

/// Run-wide shared state of the virtual cluster.
struct cluster_ctx {
  const cwcsim::sim_config* cfg = nullptr;
  const cwcsim::event_sink* sink = nullptr;
  net_channel* ingress = nullptr;
  std::atomic<bool> run_over{false};   ///< master: campaign finished/aborted
  std::atomic<unsigned> live_workers{0};
  std::mutex err_mu;
  std::exception_ptr error;  ///< first worker/host failure (rethrown by master)
};

void record_error(cluster_ctx& cx) {
  const std::lock_guard<std::mutex> lk(cx.err_mu);
  if (!cx.error) cx.error = std::current_exception();
}

bool has_error(cluster_ctx& cx) {
  const std::lock_guard<std::mutex> lk(cx.err_mu);
  return static_cast<bool>(cx.error);
}

/// Model a slower core: the quantum's measured wall time is stretched to
/// wall/speed by sleeping the difference.
void throttle(const host_state& host, std::uint64_t wall_ns) {
  if (host.speed >= 1.0 || wall_ns == 0) return;
  const double extra = static_cast<double>(wall_ns) * (1.0 / host.speed - 1.0);
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(static_cast<std::uint64_t>(extra)));
}

/// Account `sim_adv` simulated seconds against the host's kill clock.
/// Returns true when the host just died — the caller must vanish without
/// sending anything (the in-flight quantum is lost, as on a real crash).
bool note_sim_time(host_state& host, double sim_adv) {
  if (host.kill_at == std::numeric_limits<double>::infinity())
    return host.dead.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lk(host.mu);
  host.sim_executed += sim_adv;
  if (host.sim_executed >= host.kill_at) {
    host.dead.store(true, std::memory_order_relaxed);
    return true;
  }
  return false;
}

/// Per-host fault/heterogeneity state for every host of the cluster.
std::vector<std::unique_ptr<host_state>> make_hosts(const dist_config& dc) {
  std::vector<std::unique_ptr<host_state>> hosts(dc.num_hosts);
  for (unsigned h = 0; h < dc.num_hosts; ++h) {
    hosts[h] = std::make_unique<host_state>();
    hosts[h]->id = h;
    if (!dc.host_speed.empty())
      hosts[h]->speed = std::min(dc.host_speed[h], 1.0);
  }
  for (const auto& k : dc.kills)
    hosts[k.host]->kill_at = std::min(hosts[k.host]->kill_at, k.at_sim_time);
  return hosts;
}

/// The model crosses the wire once per run: the master encodes it into ONE
/// versioned frame and sends it to each host over a lossless bootstrap
/// link (think: the reliable control connection a host joins through; the
/// seeded drop stream models loss on the data plane only). Hosts decode
/// and compile their own shared artifact. Models with custom rate laws
/// cannot cross the wire and fall back to the master's in-process artifact.
class model_shipment {
 public:
  model_shipment(const cwcsim::model_ref& model, net_params link,
                 unsigned hosts)
      : master_cm_(model.compiled), ship_(wire_encodable(model)) {
    util::ensures(master_cm_ != nullptr, "distributed run without an artifact");
    if (!ship_) return;
    frame_ = encode_model(model);
    link.drop_prob = 0.0;
    links_.reserve(hosts);
    for (unsigned h = 0; h < hosts; ++h) {
      auto l = std::make_unique<net_channel>(link);
      l->add_writer();
      l->send(frame_);  // one frame per host, latency modeled
      l->close_writer();
      links_.push_back(std::move(l));
    }
  }

  /// Host `h`'s artifact. A shipped model is received and recompiled on
  /// the host, so its engines run on the decoded copy — proving the frame
  /// round-trips bit-exactly. Throws if the frame is lost.
  std::shared_ptr<const cwc::compiled_model> receive(unsigned h) const {
    if (!ship_) return master_cm_;
    const auto frame = links_[h]->recv();
    util::ensures(frame.has_value(), "model frame lost in transit");
    return decode_model(*frame);
  }

  /// Model-frame bytes shipped this run (0 under the in-process fallback).
  double bytes() const {
    return static_cast<double>(frame_.size()) *
           static_cast<double>(links_.size());
  }

 private:
  std::shared_ptr<const cwc::compiled_model> master_cm_;
  bool ship_;
  byte_buffer frame_;
  std::vector<std::unique_ptr<net_channel>> links_;
};

// --------------------------------------------------------------- static mode

/// One simulated host, static partition: `workers` engine threads advance
/// the host's fixed block of trajectories quantum by quantum — the same
/// advance_one_quantum contract as cwcsim::sim_engine_node — and stream
/// the serialized results to the master over `out`. Messages are framed as
/// a wire_tag byte followed by the payload, written in one pass. The
/// sink's stop flag is honoured at quantum boundaries (cooperative
/// cancellation of the whole cluster). Worker exceptions are captured into
/// the cluster error slot, and writer_guard closes the channel on every
/// exit path, so a failing host surfaces as a clean master-side error
/// instead of a recv() that blocks forever.
void run_host_static(const std::shared_ptr<const cwc::compiled_model>& cm,
                     const cwcsim::sim_config& cfg,
                     const std::vector<std::uint64_t>& ids, unsigned workers,
                     const cwcsim::event_sink& sink, net_channel& out,
                     host_state& host, cluster_ctx& cx) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> engines;
  engines.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) {
    engines.emplace_back([&] {
      // The master registered this writer slot before the host spawned (so
      // its recv() loop could not observe an empty, writerless channel);
      // adopt it so it is closed on EVERY exit path, including unwinding.
      auto guard = writer_guard::adopt(out);
      try {
        for (std::size_t i = next.fetch_add(1);
             i < ids.size() && !sink.stop_requested(); i = next.fetch_add(1)) {
          const std::uint64_t id = ids[i];
          cwcsim::any_engine engine(cm, cfg.seed, id);
          std::uint64_t quantum_index = 0;
          while (!sink.stop_requested()) {
            auto q = cwcsim::advance_one_quantum(engine, cfg, id, quantum_index);
            throttle(host, q.record.wall_ns);
            if (cfg.capture_trace) {
              archive_writer aw;
              aw.put(wire_tag::quantum_trace);
              write_quantum_record(aw, q.record);
              out.send(aw.take());
            }
            if (!q.batch.samples.empty()) {
              archive_writer aw;
              aw.put(wire_tag::sample_batch);
              write_sample_batch(aw, q.batch);
              out.send(aw.take());
            }
            if (q.finished) {
              archive_writer aw;
              aw.put(wire_tag::task_done);
              write_task_done(aw, q.done);
              out.send(aw.take());
              break;
            }
            ++quantum_index;
          }
        }
      } catch (...) {
        record_error(cx);
      }
      cx.live_workers.fetch_sub(1, std::memory_order_relaxed);
    });
  }
  for (auto& t : engines) t.join();
}

// -------------------------------------------------------------- elastic mode

/// Execute one grant: deterministically resume `trajectory_id` at the
/// acked checkpoint (replaying the already-ingested quanta locally without
/// emitting — engines are pure functions of (seed, id), so the replay is
/// bit-identical to the original execution), then advance quantum by
/// quantum, shipping each one to the master as an atomic quantum_result
/// checkpoint frame.
void run_granted(cluster_ctx& cx, host_state& host,
                 const std::shared_ptr<const cwc::compiled_model>& cm,
                 const work_grant& g) {
  const cwcsim::sim_config& cfg = *cx.cfg;
  const std::uint64_t t = g.trajectory_id;
  cwcsim::any_engine engine(cm, cfg.seed, t);
  std::uint64_t q = 0;

  // ---- silent replay to the checkpoint ----------------------------------
  for (; q < g.resume_quantum; ++q) {
    if (cx.run_over.load(std::memory_order_relaxed) ||
        cx.sink->stop_requested())
      return;
    const double before = engine.time();
    auto out = cwcsim::advance_one_quantum(engine, cfg, t, q);
    throttle(host, out.record.wall_ns);
    if (note_sim_time(host, engine.time() - before)) return;
    if (out.finished) return;  // stale grant past completion: nothing to add
  }

  // ---- live stretch: emit from the checkpoint onward --------------------
  while (!cx.run_over.load(std::memory_order_relaxed) &&
         !cx.sink->stop_requested()) {
    const double before = engine.time();
    auto out = cwcsim::advance_one_quantum(engine, cfg, t, q);
    throttle(host, out.record.wall_ns);
    // A killed host vanishes BEFORE sending: the in-flight quantum is lost
    // and the master recovers it by deadline-driven re-issue.
    if (note_sim_time(host, engine.time() - before)) return;

    quantum_result qr;
    qr.host = host.id;
    qr.trajectory_id = t;
    qr.quantum_index = q;
    qr.time = engine.time();
    qr.steps = engine.steps();
    qr.finished = out.finished;
    qr.samples = std::move(out.batch.samples);
    if (cfg.capture_trace) {
      qr.has_record = true;
      qr.record = out.record;
    }
    archive_writer w;
    w.put(wire_tag::quantum_result);
    write_quantum_result(w, qr);
    cx.ingress->send(w.take());

    if (out.finished) return;
    ++q;
  }
}

/// One elastic worker thread: pull a grant, execute it, repeat. Liveness
/// never depends on the master answering a specific request — lost
/// requests/grants are re-sent after worker_retry_s, and the master's
/// exactly-once accounting absorbs the resulting duplicates.
void elastic_worker(cluster_ctx& cx, host_state& host, unsigned worker_idx,
                    const std::shared_ptr<const cwc::compiled_model>& cm,
                    net_channel& ctrl, const dist_config& dc) {
  writer_guard guard(*cx.ingress);
  try {
    while (!cx.run_over.load(std::memory_order_relaxed) &&
           !host.dead.load(std::memory_order_relaxed) &&
           !cx.sink->stop_requested()) {
      {
        archive_writer w;
        w.put(wire_tag::work_request);
        write_work_request(w, {host.id, worker_idx});
        cx.ingress->send(w.take());
      }
      const auto msg = ctrl.recv_for(dc.worker_retry_s);
      if (!msg) {
        if (ctrl.drained()) break;  // master closed the control channel
        continue;                   // request or grant lost: re-send
      }
      archive_reader r(*msg);
      const auto tag = r.get<wire_tag>();
      if (tag == wire_tag::shutdown) break;
      util::ensures(tag == wire_tag::work_grant, "unexpected control frame");
      run_granted(cx, host, cm, read_work_grant(r));
    }
  } catch (...) {
    record_error(cx);
  }
  cx.live_workers.fetch_sub(1, std::memory_order_relaxed);
  // guard closes the ingress writer on all paths; the master's liveness
  // never depends on it (recv_for deadlines own failure detection).
}

}  // namespace

cluster_driver::cluster_driver(cwcsim::model_ref model, dist_config cfg)
    : model_(std::move(model)), cfg_(std::move(cfg)) {
  util::expects(model_.tree != nullptr || model_.flat != nullptr,
                "cluster_driver requires a model");
  cwcsim::validate(
      cfg_.base,
      cwcsim::distributed{cfg_.num_hosts, cfg_.workers_per_host, cfg_.network,
                          cfg_.scheduling == schedule_mode::static_block});
  util::expects(cfg_.host_speed.empty() ||
                    cfg_.host_speed.size() == cfg_.num_hosts,
                "host_speed must name every host (or be empty)");
  for (const double s : cfg_.host_speed)
    util::expects(s > 0.0, "host_speed must be positive");
  for (const auto& k : cfg_.kills)
    util::expects(k.host < cfg_.num_hosts, "kill_spec names an unknown host");
  util::expects(cfg_.kills.empty() ||
                    cfg_.scheduling == schedule_mode::elastic,
                "static scheduling cannot survive a host failure — "
                "use schedule_mode::elastic with fault injection");
  util::expects(cfg_.reissue_after_s > 0.0 && cfg_.master_tick_s > 0.0 &&
                    cfg_.worker_retry_s > 0.0,
                "elastic scheduling timeouts must be positive");
  model_.compile();  // the master's artifact (and the wire fallback)
}

void cluster_driver::run(cwcsim::event_sink& sink,
                         cwcsim::run_report& report) {
  if (cfg_.scheduling == schedule_mode::elastic)
    run_elastic(sink, report);
  else
    run_static(sink, report);
}

// ----------------------------------------------------------------- elastic

void cluster_driver::run_elastic(cwcsim::event_sink& sink,
                                 cwcsim::run_report& report) {
  const cwcsim::sim_config& base = cfg_.base;
  util::stopwatch sw;
  const unsigned H = cfg_.num_hosts;
  const unsigned W = cfg_.workers_per_host;
  const std::uint64_t N = base.num_trajectories;

  const model_shipment model(model_, cfg_.network, H);

  // ---- channels: MPSC ingress (hosts -> master), per-host control -------
  net_channel ingress(cfg_.network);
  std::vector<std::unique_ptr<net_channel>> ctrl;
  ctrl.reserve(H);
  for (unsigned h = 0; h < H; ++h) {
    ctrl.push_back(std::make_unique<net_channel>(cfg_.network));
    ctrl.back()->add_writer();  // the master is the only control writer
  }

  const auto hosts = make_hosts(cfg_);

  cluster_ctx cx;
  cx.cfg = &base;
  cx.sink = &sink;
  cx.ingress = &ingress;
  cx.live_workers.store(H * W, std::memory_order_relaxed);

  // ---- launch the virtual cluster ---------------------------------------
  std::vector<std::thread> host_threads;
  host_threads.reserve(H);
  for (unsigned h = 0; h < H; ++h) {
    host_threads.emplace_back([this, &cx, &hosts, &ctrl, &model, W, h] {
      std::shared_ptr<const cwc::compiled_model> host_cm;
      try {
        host_cm = model.receive(h);
      } catch (...) {
        record_error(cx);
        cx.live_workers.fetch_sub(W, std::memory_order_relaxed);
        return;
      }
      std::vector<std::thread> workers;
      workers.reserve(W);
      for (unsigned w = 0; w < W; ++w)
        workers.emplace_back([&cx, &hosts, &ctrl, host_cm, h, w, this] {
          elastic_worker(cx, *hosts[h], w, host_cm, *ctrl[h], cfg_);
        });
      for (auto& t : workers) t.join();
    });
  }

  // ---- master scheduler state -------------------------------------------
  struct traj_state {
    std::uint64_t acked = 0;  ///< next expected quantum (checkpoint)
    bool done = false;
    bool queued = true;  ///< sitting in the work queue
    unsigned grants = 0;
    std::uint32_t owner = 0xFFFFFFFFu;  ///< host of the latest grant
    steady_clock::time_point last{};    ///< last grant or accepted progress
  };
  std::vector<traj_state> st(N);
  std::deque<std::uint64_t> queue;
  for (std::uint64_t t = 0; t < N; ++t) queue.push_back(t);
  std::deque<work_request> waiting;  ///< idle workers, FIFO
  std::vector<char> pending(static_cast<std::size_t>(H) * W, 0);

  std::uint64_t done_count = 0;
  std::uint64_t grants_issued = 0, reissued = 0, duplicates = 0;
  std::vector<std::uint64_t> host_quanta(H, 0);
  bool cluster_dead = false;

  const auto reissue_after = std::chrono::duration_cast<steady_clock::duration>(
      std::chrono::duration<double>(cfg_.reissue_after_s));

  report.result.sim_workers = H * W;
  // The master runs the analysis stages inline on one thread; report what
  // actually executed, not the base config's farm width.
  report.result.stat_engines = 1;

  cwcsim::online_analysis analysis(base, model_.num_observables(), sink);

  auto serve = [&](steady_clock::time_point now) {
    while (!waiting.empty() && !queue.empty()) {
      const std::uint64_t t = queue.front();
      queue.pop_front();
      auto& s = st[t];
      s.queued = false;
      if (s.done) continue;  // finished while waiting for re-issue
      // Prefer a host that is NOT the current owner: re-issued work should
      // land somewhere the straggler is not.
      std::size_t pick = 0;
      for (std::size_t i = 0; i < waiting.size(); ++i)
        if (waiting[i].host != s.owner) {
          pick = i;
          break;
        }
      const work_request rq = waiting[pick];
      waiting.erase(waiting.begin() + static_cast<std::ptrdiff_t>(pick));
      pending[static_cast<std::size_t>(rq.host) * W + rq.worker] = 0;

      archive_writer w;
      w.put(wire_tag::work_grant);
      write_work_grant(w, work_grant{t, s.acked});
      ctrl[rq.host]->send(w.take());
      ++grants_issued;
      ++s.grants;
      s.owner = rq.host;
      s.last = now;
      if (s.grants > 1) {
        ++reissued;
        sink.quantum_reissued(t, s.acked);
      }
    }
  };

  auto scan_deadlines = [&](steady_clock::time_point now) {
    for (std::uint64_t t = 0; t < N; ++t) {
      auto& s = st[t];
      if (s.done || s.queued || s.grants == 0) continue;
      if (now - s.last > reissue_after) {
        queue.push_back(t);
        s.queued = true;
      }
    }
  };

  // ---- master: schedule + align -> window -> statistics, on-line --------
  auto shutdown_cluster = [&] {
    cx.run_over.store(true, std::memory_order_relaxed);
    for (auto& c : ctrl) {
      archive_writer w;
      w.put(wire_tag::shutdown);
      c->send(w.take());
      c->close_writer();  // closing is not droppable: workers always wake
    }
    for (auto& t : host_threads) t.join();
  };

  try {
    while (done_count < N) {
      if (sink.stop_requested() || has_error(cx)) break;
      if (cx.live_workers.load(std::memory_order_relaxed) == 0) {
        cluster_dead = true;
        break;
      }
      const auto msg = ingress.recv_for(cfg_.master_tick_s);
      const auto now = steady_clock::now();
      if (msg) {
        archive_reader r(*msg);
        switch (r.get<wire_tag>()) {
          case wire_tag::work_request: {
            const auto rq = read_work_request(r);
            util::ensures(rq.host < H && rq.worker < W,
                          "work request from an unknown worker");
            char& p = pending[static_cast<std::size_t>(rq.host) * W + rq.worker];
            if (!p) {
              p = 1;
              waiting.push_back(rq);
            }
            break;
          }
          case wire_tag::quantum_result: {
            const auto qr = read_quantum_result(r);
            util::ensures(qr.trajectory_id < N && qr.host < H,
                          "quantum result for an unknown trajectory/host");
            auto& s = st[qr.trajectory_id];
            if (s.done || qr.quantum_index != s.acked) {
              // Late duplicate from a superseded execution, or a gap frame
              // after a loss: accounting stays exactly-once.
              ++duplicates;
              break;
            }
            for (const auto& smp : qr.samples)
              analysis.ingest(qr.trajectory_id, smp);
            ++s.acked;
            s.last = now;
            ++host_quanta[qr.host];
            if (base.capture_trace && qr.has_record)
              report.result.trace.push_back(qr.record);
            if (qr.finished) {
              s.done = true;
              ++done_count;
              const cwcsim::task_done d{qr.trajectory_id,
                                        qr.quantum_index + 1, qr.steps};
              report.result.completions.push_back(d);
              sink.trajectory_done(d);
            }
            break;
          }
          default:
            util::ensures(false, "unknown wire tag");
        }
      }
      scan_deadlines(now);
      serve(now);
    }
  } catch (...) {
    // Unwinding past joinable threads would std::terminate; shut the
    // cluster down first so contract violations stay catchable.
    shutdown_cluster();
    throw;
  }
  shutdown_cluster();

  {
    const std::lock_guard<std::mutex> lk(cx.err_mu);
    if (cx.error) std::rethrow_exception(cx.error);
  }
  if (cluster_dead && !sink.stop_requested())
    throw std::runtime_error(
        "distributed run failed: every host died before completion");

  analysis.finish();
  if (!sink.stop_requested()) {
    util::ensures(report.result.completions.size() == base.num_trajectories,
                  "lost trajectory completions");
  }

  report.network.emplace();
  report.network->messages = static_cast<std::size_t>(ingress.messages_sent());
  report.network->bytes = static_cast<double>(ingress.bytes_sent());
  report.network->model_bytes = model.bytes();
  report.network->grants = grants_issued;
  report.network->reissued = reissued;
  report.network->duplicate_quanta = duplicates;
  std::uint64_t dropped = ingress.messages_dropped();
  for (const auto& c : ctrl) dropped += c->messages_dropped();
  report.network->messages_dropped = dropped;
  report.network->host_quanta = std::move(host_quanta);
  report.result.wall_seconds = sw.elapsed_s();
}

// ------------------------------------------------------------------ static

void cluster_driver::run_static(cwcsim::event_sink& sink,
                                cwcsim::run_report& report) {
  const cwcsim::sim_config& base = cfg_.base;
  util::stopwatch sw;

  // ---- partition trajectories across hosts (contiguous blocks) ----------
  std::vector<std::vector<std::uint64_t>> partition(cfg_.num_hosts);
  {
    const std::uint64_t n = base.num_trajectories;
    const std::uint64_t per = n / cfg_.num_hosts;
    const std::uint64_t extra = n % cfg_.num_hosts;
    std::uint64_t id = 0;
    for (unsigned h = 0; h < cfg_.num_hosts; ++h) {
      const std::uint64_t take = per + (h < extra ? 1 : 0);
      for (std::uint64_t i = 0; i < take; ++i) partition[h].push_back(id++);
    }
  }

  const model_shipment model(model_, cfg_.network, cfg_.num_hosts);

  // ---- launch the virtual cluster ---------------------------------------
  // All hosts stream into the master's ingress link (an MPSC channel, one
  // writer per engine thread), so the master consumes messages in arrival
  // order and cuts complete — and are analysed — on-line, with bounded
  // buffering, exactly like the shared-memory alignment stage.
  net_channel ingress(cfg_.network);
  for (unsigned w = 0; w < cfg_.num_hosts * cfg_.workers_per_host; ++w)
    ingress.add_writer();

  cluster_ctx cx;
  cx.cfg = &base;
  cx.sink = &sink;
  cx.ingress = &ingress;
  cx.live_workers.store(cfg_.num_hosts * cfg_.workers_per_host,
                        std::memory_order_relaxed);

  const auto hosts_state = make_hosts(cfg_);

  std::vector<std::thread> hosts;
  hosts.reserve(cfg_.num_hosts);
  for (unsigned h = 0; h < cfg_.num_hosts; ++h) {
    hosts.emplace_back([this, &base, &partition, &sink, &ingress, &model,
                        &hosts_state, &cx, h] {
      std::shared_ptr<const cwc::compiled_model> host_cm;
      try {
        host_cm = model.receive(h);
      } catch (...) {
        record_error(cx);
        // The workers never spawn; release their writer slots so the
        // master's recv() drains instead of blocking forever.
        cx.live_workers.fetch_sub(cfg_.workers_per_host,
                                  std::memory_order_relaxed);
        for (unsigned w = 0; w < cfg_.workers_per_host; ++w)
          ingress.close_writer();
        return;
      }
      run_host_static(host_cm, base, partition[h], cfg_.workers_per_host,
                      sink, ingress, *hosts_state[h], cx);
    });
  }
  // net_channel::send never blocks, so the hosts always run to completion
  // and are joinable even if the master fails mid-stream.
  auto join_hosts = [&hosts] {
    for (auto& h : hosts) h.join();
  };

  // ---- master: align -> window -> statistics, on-line -------------------
  report.result.sim_workers = cfg_.num_hosts * cfg_.workers_per_host;
  // The master runs the analysis stages inline on one thread; report what
  // actually executed, not the base config's farm width.
  report.result.stat_engines = 1;

  cwcsim::online_analysis analysis(base, model_.num_observables(), sink);

  try {
    while (auto msg = ingress.recv()) {
      archive_reader r(*msg);
      switch (r.get<wire_tag>()) {
        case wire_tag::sample_batch: {
          const auto batch = read_sample_batch(r);
          for (const auto& s : batch.samples)
            analysis.ingest(batch.trajectory_id, s);
          break;
        }
        case wire_tag::task_done: {
          const auto done = read_task_done(r);
          report.result.completions.push_back(done);
          sink.trajectory_done(done);
          break;
        }
        case wire_tag::quantum_trace:
          report.result.trace.push_back(read_quantum_record(r));
          break;
        default:
          util::ensures(false, "unknown wire tag");
      }
    }
  } catch (...) {
    // Unwinding past joinable threads would std::terminate; drain first so
    // contract violations stay catchable.
    join_hosts();
    throw;
  }
  join_hosts();

  {
    // A host worker failed: surface its error instead of the misleading
    // "lost trajectory completions" below.
    const std::lock_guard<std::mutex> lk(cx.err_mu);
    if (cx.error) std::rethrow_exception(cx.error);
  }

  analysis.finish();
  if (!sink.stop_requested()) {
    util::ensures(report.result.completions.size() == base.num_trajectories,
                  "lost trajectory completions");
  }

  report.network.emplace();
  report.network->messages = static_cast<std::size_t>(ingress.messages_sent());
  report.network->bytes = static_cast<double>(ingress.bytes_sent());
  report.network->model_bytes = model.bytes();
  report.network->messages_dropped = ingress.messages_dropped();
  report.result.wall_seconds = sw.elapsed_s();
}

}  // namespace dist

namespace cwcsim::detail {

std::unique_ptr<backend_driver> make_distributed_driver(const model_ref& model,
                                                        const sim_config& cfg,
                                                        const distributed& b) {
  dist::dist_config dc;
  dc.base = cfg;
  dc.num_hosts = b.num_hosts;
  dc.workers_per_host = b.workers_per_host;
  dc.network = b.network;
  dc.scheduling = b.static_partition ? dist::schedule_mode::static_block
                                     : dist::schedule_mode::elastic;
  return std::make_unique<dist::cluster_driver>(model, std::move(dc));
}

}  // namespace cwcsim::detail
