#include "core/nodes.hpp"

#include <algorithm>

#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace cwcsim {

// ---------------------------------------------------------------- generator

task_generator::task_generator(model_ref model, const sim_config& cfg,
                               const event_sink* events)
    : model_(model), cfg_(&cfg), events_(events) {
  set_name("task-generator");
  util::expects(model.tree != nullptr || model.flat != nullptr,
                "task_generator requires a model");
  ids_.reserve(cfg.num_trajectories);
  for (std::uint64_t i = 0; i < cfg.num_trajectories; ++i) ids_.push_back(i);
}

task_generator::task_generator(model_ref model, const sim_config& cfg,
                               std::vector<std::uint64_t> ids,
                               const event_sink* events)
    : model_(model), cfg_(&cfg), events_(events), ids_(std::move(ids)) {
  set_name("task-generator");
  util::expects(model.tree != nullptr || model.flat != nullptr,
                "task_generator requires a model");
  util::expects(!ids_.empty(), "task_generator requires at least one id");
}

ff::outcome task_generator::svc(ff::token /*tick*/) {
  if (next_ >= ids_.size()) return ff::outcome::end;
  if (events_ != nullptr && events_->stop_requested()) return ff::outcome::end;
  const std::uint64_t id = ids_[next_];
  auto engine = model_.make_engine(cfg_->seed, id);
  send_out(ff::token::make<sim_task>(id, std::move(engine)));
  ++next_;
  return next_ < ids_.size() ? ff::outcome::more : ff::outcome::end;
}

// ---------------------------------------------------------------- scheduler

task_scheduler::task_scheduler(const sim_config& /*cfg*/, event_sink* events)
    : events_(events) {
  set_name("task-scheduler");
  set_continue_after_eos(true);
}

ff::outcome task_scheduler::maybe_done() const noexcept {
  return (upstream_done_ && outstanding_ == 0) ? ff::outcome::end
                                               : ff::outcome::more;
}

ff::outcome task_scheduler::svc(ff::token t) {
  if (t.holds<sim_task>()) {
    const bool fresh = t.as<sim_task>().quantum_index == 0;
    if (stopping()) {
      // Cooperative cancellation: retire in-flight tasks instead of
      // redispatching; fresh tasks were never counted as outstanding.
      if (!fresh) {
        util::expects(outstanding_ > 0, "retired task was not outstanding");
        --outstanding_;
      }
      return maybe_done();
    }
    if (fresh) ++outstanding_;
    ++dispatched_;
    send_out(std::move(t));
    return ff::outcome::more;
  }
  if (t.holds<task_done>()) {
    util::expects(outstanding_ > 0, "completion for unknown task");
    --outstanding_;
    completions_.push_back(t.as<task_done>());
    if (events_ != nullptr) events_->trajectory_done(t.as<task_done>());
    return maybe_done();
  }
  util::ensures(false, "task_scheduler received unexpected token type");
  return ff::outcome::more;
}

ff::outcome task_scheduler::on_upstream_eos() {
  upstream_done_ = true;
  return maybe_done();
}

// ------------------------------------------------------------------- worker

sim_engine_node::sim_engine_node(const sim_config& cfg, unsigned worker_id)
    : cfg_(&cfg), worker_id_(worker_id) {
  set_name("sim-engine-" + std::to_string(worker_id));
}

ff::outcome sim_engine_node::svc(ff::token t) {
  auto task = t.take<sim_task>();
  auto outcome = advance_one_quantum(task.engine, *cfg_, task.trajectory_id,
                                     task.quantum_index);

  ++quanta_;
  if (cfg_->capture_trace) trace_.push_back(outcome.record);

  if (!outcome.batch.samples.empty())
    send_out(ff::token::of(std::move(outcome.batch)));

  if (outcome.finished) {
    send_feedback(ff::token::of(outcome.done));
  } else {
    ++task.quantum_index;
    send_feedback(ff::token::make<sim_task>(std::move(task)));
  }
  return ff::outcome::more;
}

// ------------------------------------------------------------------ aligner

trajectory_aligner::trajectory_aligner(const sim_config& cfg,
                                       std::size_t num_observables,
                                       const event_sink* events)
    : assembler_(cfg, num_observables), events_(events) {
  set_name("trajectory-aligner");
}

ff::outcome trajectory_aligner::svc(ff::token t) {
  const auto batch = t.take<sample_batch>();
  for (const auto& s : batch.samples) {
    assembler_.ingest(batch.trajectory_id, s, [this](stats::trajectory_cut&& c) {
      send_out(ff::token::of(std::move(c)));
    });
  }
  return ff::outcome::more;
}

void trajectory_aligner::on_eos() {
  // A complete run leaves nothing behind; partially filled cuts indicate a
  // trajectory loss upstream and must not silently disappear. A cancelled
  // run legitimately drops the cuts its retired trajectories never filled.
  if (events_ != nullptr && events_->stop_requested()) return;
  util::ensures(assembler_.drained(), "alignment buffer not drained at EOS");
}

// -------------------------------------------------------------- stat engine

stat_engine_node::stat_engine_node(const sim_config& cfg) : cfg_(&cfg) {
  set_name("stat-engine");
}

ff::outcome stat_engine_node::svc(ff::token t) {
  const auto cut = t.take<stats::trajectory_cut>();
  ++processed_;
  send_out(ff::token::of(
      stats::summarize_cut(cut, cfg_->kmeans_k, cfg_->seed)));
  return ff::outcome::more;
}

// ------------------------------------------------------------------ reorder

reorder_gather::reorder_gather() { set_name("reorder-gather"); }

ff::outcome reorder_gather::svc(ff::token t) {
  auto s = t.take<stats::cut_summary>();
  held_.emplace(s.sample_index, std::move(s));
  while (!held_.empty() && held_.begin()->first == next_) {
    auto node = held_.extract(held_.begin());
    send_out(ff::token::of(std::move(node.mapped())));
    ++next_;
  }
  return ff::outcome::more;
}

void reorder_gather::on_eos() {
  // The aligner emits every cut index once, consecutively from 0, so each
  // held summary was released by its predecessor's arrival.
  util::ensures(held_.empty(), "reorder_gather: gap in the cut stream");
}

// ---------------------------------------------------------------- windowing

window_generator::window_generator(const sim_config& cfg)
    : builder_(cfg.window_size, cfg.window_slide) {
  set_name("window-generator");
}

ff::outcome window_generator::svc(ff::token t) {
  for (auto& w : builder_.push(t.take<stats::cut_summary>()))
    send_out(ff::token::of(std::move(w)));
  return ff::outcome::more;
}

void window_generator::on_eos() {
  for (auto& w : builder_.flush()) send_out(ff::token::of(std::move(w)));
}

// --------------------------------------------------------------------- sink

result_sink::result_sink(simulation_result* out)
    : result_sink([out](window_summary&& w) {
        out->windows.push_back(std::move(w));
      }) {
  util::expects(out != nullptr, "result_sink requires a destination");
}

result_sink::result_sink(std::function<void(window_summary&&)> push)
    : push_(std::move(push)) {
  set_name("result-sink");
  util::expects(static_cast<bool>(push_), "result_sink requires a consumer");
}

ff::outcome result_sink::svc(ff::token t) {
  if (t.holds<window_summary>()) {
    push_(t.take<window_summary>());
    return ff::outcome::more;
  }
  util::ensures(false, "result_sink received unexpected token type");
  return ff::outcome::more;
}

}  // namespace cwcsim
