#include "stats/cut.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace stats {

cut_summary summarize_cut(const trajectory_cut& cut, std::uint32_t kmeans_k,
                          std::uint64_t seed) {
  cut_summary s;
  s.sample_index = cut.sample_index;
  s.time = cut.time;
  if (cut.values.empty()) return s;

  const std::size_t dims = cut.values.front().size();
  s.moments.resize(dims);
  s.medians.resize(dims, 0.0);

  std::vector<double> scratch(cut.values.size());
  for (std::size_t d = 0; d < dims; ++d) {
    for (std::size_t i = 0; i < cut.values.size(); ++i) {
      util::expects(cut.values[i].size() == dims, "ragged trajectory cut");
      s.moments[d].add(cut.values[i][d]);
      scratch[i] = cut.values[i][d];
    }
    auto mid = scratch.begin() + static_cast<std::ptrdiff_t>(scratch.size() / 2);
    std::nth_element(scratch.begin(), mid, scratch.end());
    s.medians[d] = *mid;
  }

  if (kmeans_k > 0) s.clusters = kmeans(cut.values, kmeans_k, seed);
  return s;
}

}  // namespace stats
