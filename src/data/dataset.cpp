#include "data/dataset.h"

namespace apf::data {

std::vector<std::size_t> Dataset::all_labels() const {
  std::vector<std::size_t> labels(size());
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = label(i);
  return labels;
}

}  // namespace apf::data
