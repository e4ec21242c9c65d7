#include "core/lane_rounds.hpp"

#include <algorithm>

#include "core/quantum.hpp"
#include "util/check.hpp"

namespace cwcsim {

bool lane_rounds::batched(const cell_list& cells, std::size_t batch_width) {
  return batch_width > 1 &&
         std::all_of(cells.begin(), cells.end(), [](const auto& c) {
           return cwc::batch::batch_engine::supports(*c);
         });
}

std::vector<lane_rounds::strip> lane_rounds::make_strips(
    const cell_list& cells, const sim_config& cfg, std::size_t batch_width) {
  util::expects(!cells.empty(), "lane_rounds needs at least one cell");
  const std::uint64_t n = cfg.num_trajectories;
  const std::uint64_t lanes = cells.size() * n;
  const std::uint64_t width = batched(cells, batch_width) ? batch_width : 1;
  std::vector<strip> strips;
  strips.reserve((lanes + width - 1) / width);
  for (std::uint64_t first = 0; first < lanes; first += width) {
    const auto w = static_cast<std::size_t>(std::min(width, lanes - first));
    strip s;
    s.first = first;
    if (width > 1) {
      std::vector<cwc::batch::batch_engine::lane_desc> descs(w);
      for (std::size_t i = 0; i < w; ++i)
        descs[i] = {(first + i) % n, static_cast<std::uint32_t>((first + i) / n)};
      s.batch = std::make_unique<cwc::batch::batch_engine>(cells, cfg.seed,
                                                           std::move(descs));
    } else {
      s.scalar.emplace(cells[first / n], cfg.seed, first % n);
    }
    s.samples.resize(w);
    s.steps_before.assign(w, 0);
    s.retired.assign(w, 0);
    s.live = w;
    strips.push_back(std::move(s));
  }
  return strips;
}

lane_rounds::lane_rounds(const cell_list& cells, const sim_config& cfg,
                         std::size_t batch_width, unsigned workers)
    : cfg_(cfg),
      n_(cfg.num_trajectories),
      strips_(make_strips(cells, cfg, batch_width)),
      live_(cells.size() * cfg.num_trajectories),
      pool_(std::max(1u, static_cast<unsigned>(std::min<std::size_t>(
                             workers, strips_.size())))) {}

void lane_rounds::advance() {
  // A batch strip is a heavy work item, so workers take one at a time. A
  // scalar lane is light: auto grain takes a chunk of them per shared
  // cursor bump, which timed faster on the scalar sweep and gpu paths.
  const std::int64_t grain = strips_.front().batch ? 1 : 0;
  pool_.for_each(0, static_cast<std::int64_t>(strips_.size()), grain,
                 [this](std::int64_t k) {
                   strip& s = strips_[static_cast<std::size_t>(k)];
                   if (s.live == 0) return;
                   for (std::size_t i = 0; i < s.samples.size(); ++i) {
                     s.samples[i].clear();
                     s.steps_before[i] = s.steps(i);
                   }
                   if (s.batch) {
                     s.batch->step_quantum(cfg_.quantum, cfg_.t_end,
                                           cfg_.sample_period, s.samples);
                   } else {
                     s.samples[0] = advance_one_quantum(
                                        *s.scalar, cfg_, s.first % n_, rounds_,
                                        std::move(s.samples[0]))
                                        .batch.samples;
                   }
                 });
  ++rounds_;
}

}  // namespace cwcsim
