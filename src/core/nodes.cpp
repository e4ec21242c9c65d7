#include "core/nodes.hpp"

#include <algorithm>
#include <utility>

#include "core/lane_rounds.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace cwcsim {

// ---------------------------------------------------------------- scheduler

task_scheduler::task_scheduler(const model_ref& model, const sim_config& cfg,
                               std::size_t batch_width, event_sink& events)
    : events_(events) {
  set_name("task-scheduler");
  set_continue_after_eos(true);
  util::expects(model.compiled != nullptr,
                "task_scheduler requires a compiled model");
  const std::uint64_t n = cfg.num_trajectories;
  const std::uint64_t width =
      !cfg.capture_trace && lane_rounds::batched({model.compiled}, batch_width)
          ? batch_width
          : 1;
  for (std::uint64_t first = 0; first < n; first += width)
    tasks_.emplace_back(strip::cell_list{model.compiled}, cfg, first,
                        std::min(width, n - first));
}

void task_scheduler::on_init() {
  // Every task is dispatched before any fed-back one, so no task runs ahead
  // of a lane that has not started.
  for (sim_task& task : tasks_) {
    if (stopping()) break;
    outstanding_ += task.width();
    send_out(ff::token::make<sim_task>(std::move(task)));
  }
  tasks_ = std::vector<sim_task>();  // every slot was moved from
}

ff::outcome task_scheduler::maybe_done() const noexcept {
  return outstanding_ == 0 ? ff::outcome::end : ff::outcome::more;
}

ff::outcome task_scheduler::svc(ff::token t) {
  if (t.holds<sim_task>()) {
    if (!stopping()) {
      send_out(std::move(t));
      return ff::outcome::more;
    }
    // Cooperative cancellation: retire in-flight tasks, live lanes and
    // all, instead of redispatching.
    const std::size_t live = t.as<sim_task>().live;
    util::expects(outstanding_ >= live, "retired lanes were not outstanding");
    outstanding_ -= live;
    return maybe_done();
  }
  if (t.holds<task_done>()) {
    util::expects(outstanding_ > 0, "completion for unknown task");
    --outstanding_;
    completions_.push_back(t.as<task_done>());
    events_.trajectory_done(t.as<task_done>());
    return maybe_done();
  }
  util::ensures(false, "task_scheduler received unexpected token type");
  return ff::outcome::more;
}

ff::outcome task_scheduler::on_upstream_eos() { return maybe_done(); }

// ------------------------------------------------------------------- worker

sim_engine_node::sim_engine_node(const sim_config& cfg, unsigned worker_id)
    : cfg_(&cfg) {
  set_name("sim-engine-" + std::to_string(worker_id));
}

ff::outcome sim_engine_node::svc(ff::token t) {
  auto task = t.take<sim_task>();
  util::stopwatch sw;
  advance_one_quantum(task, *cfg_);
  const std::uint64_t wall_ns = sw.elapsed_ns();

  for (std::size_t i = 0; i < task.width(); ++i) {
    if (task.state[i] == strip::lane::retired) continue;
    auto& samples = task.samples[i];
    if (cfg_->capture_trace)  // one-lane tasks: the wall time is the lane's
      trace_.push_back({task.first + i, task.quanta - 1,
                        task.steps(i) - task.steps_before[i], wall_ns,
                        static_cast<std::uint32_t>(samples.size())});
    if (!samples.empty())
      send_out(ff::token::of(sample_batch{task.first + i, std::move(samples)}));
  }
  for (std::size_t i = 0; i < task.width(); ++i)
    if (task.state[i] == strip::lane::finished)
      send_feedback(ff::token::of(
          task_done{task.first + i, task.quanta, task.steps(i)}));
  if (task.live > 0) send_feedback(ff::token::make<sim_task>(std::move(task)));
  return ff::outcome::more;
}

// ------------------------------------------------------------------ aligner

trajectory_aligner::trajectory_aligner(const sim_config& cfg,
                                       std::size_t num_observables,
                                       const event_sink& events)
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
  if (events_.stop_requested()) return;
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

// ------------------------------------------------------------------ gather

window_gather::window_gather(const sim_config& cfg,
                             std::function<void(window_summary&&)> push)
    : builder_(cfg.window_size, cfg.window_slide), push_(std::move(push)) {
  set_name("window-gather");
  util::expects(static_cast<bool>(push_), "window_gather requires a consumer");
}

ff::outcome window_gather::svc(ff::token t) {
  auto s = t.take<stats::cut_summary>();
  held_.emplace(s.sample_index, std::move(s));
  while (!held_.empty() && held_.begin()->first == next_) {
    for (auto& w : builder_.push(std::move(held_.extract(held_.begin()).mapped())))
      push_(std::move(w));
    ++next_;
  }
  return ff::outcome::more;
}

void window_gather::on_eos() {
  // The aligner emits every cut index once, consecutively from 0, so each
  // held summary was released by its predecessor's arrival.
  util::ensures(held_.empty(), "window_gather: gap in the cut stream");
  for (auto& w : builder_.flush()) push_(std::move(w));
}

}  // namespace cwcsim
