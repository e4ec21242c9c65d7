#include "core/lane_rounds.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace cwcsim {

bool lane_rounds::batched(const cell_list& cells, std::size_t batch_width) {
  return batch_width > 1 &&
         std::all_of(cells.begin(), cells.end(), [](const auto& c) {
           return cwc::batch::batch_engine::supports(*c);
         });
}

std::vector<strip> lane_rounds::make_strips(const cell_list& cells,
                                            const sim_config& cfg,
                                            std::size_t batch_width) {
  util::expects(!cells.empty(), "lane_rounds needs at least one cell");
  const std::uint64_t lanes = cells.size() * cfg.num_trajectories;
  const std::uint64_t width = batched(cells, batch_width) ? batch_width : 1;
  std::vector<strip> strips;
  strips.reserve((lanes + width - 1) / width);
  for (std::uint64_t first = 0; first < lanes; first += width)
    strips.emplace_back(cells, cfg, first, std::min(width, lanes - first));
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
                   if (s.live > 0) advance_one_quantum(s, cfg_);
                 });
  ++rounds_;
}

}  // namespace cwcsim
