#include "util/label_rows.h"

#include <algorithm>

#include "util/logging.h"
#include "util/target_clones.h"

namespace tcomp {

bool LabelTable::Assign(const std::vector<uint32_t>& snapshot_ids,
                        const std::vector<std::vector<uint32_t>>& groups) {
  const uint64_t universe =
      snapshot_ids.empty() ? 0 : uint64_t{snapshot_ids.back()} + 1;
  if (!BitsetProfitable(universe, snapshot_ids.size())) return false;
  label_of_.assign(universe, -1);
  for (size_t k = 0; k < groups.size(); ++k) {
    for (uint32_t id : groups[k]) {
      TCOMP_DCHECK(uint64_t{id} < universe);
      label_of_[id] = static_cast<int32_t>(k);
    }
  }
  return true;
}

void LabelTable::Gather(const std::vector<uint32_t>& ids,
                        std::vector<int32_t>* row) const {
  row->resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) (*row)[i] = Label(ids[i]);
}

// Lanes hold consecutive labels, so each row entry is broadcast and
// compared with a whole block of labels at once. The lane loop has a
// fixed trip count and no dependence between lanes; GCC -O3 turns it into
// one broadcast plus four 8-lane AVX2 compare-and-subtracts per entry
// (eight SSE2 ones in the baseline clone), with no tail on the row. Each
// lane still compares every entry of the row with its label.
TCOMP_TARGET_CLONES
void CountLabels(const int32_t* row, size_t n, size_t num_labels,
                 uint32_t* counts) {
  constexpr size_t kLanes = 32;
  for (size_t base = 0; base < num_labels; base += kLanes) {
    int32_t lane_label[kLanes];
    for (size_t j = 0; j < kLanes; ++j) {
      lane_label[j] = static_cast<int32_t>(base + j);
    }
    uint32_t acc[kLanes] = {};
    for (size_t i = 0; i < n; ++i) {
      const int32_t label = row[i];
      for (size_t j = 0; j < kLanes; ++j) {
        acc[j] += label == lane_label[j] ? 1u : 0u;
      }
    }
    const size_t lanes = std::min(kLanes, num_labels - base);
    for (size_t j = 0; j < lanes; ++j) counts[base + j] = acc[j];
  }
}

void SelectLabel(const std::vector<uint32_t>& ids,
                 const std::vector<int32_t>& row, int32_t label,
                 std::vector<uint32_t>* out) {
  TCOMP_DCHECK(row.size() == ids.size());
  out->clear();
  for (size_t i = 0; i < ids.size(); ++i) {
    if (row[i] == label) out->push_back(ids[i]);
  }
}

void SplitLabel(std::vector<uint32_t>* ids, std::vector<int32_t>* row,
                int32_t label, std::vector<uint32_t>* out) {
  TCOMP_DCHECK(row->size() == ids->size());
  out->clear();
  const size_t n = ids->size();
  uint32_t* id = ids->data();
  int32_t* lab = row->data();
  size_t i = 0;
  while (i < n && lab[i] != label) ++i;  // nothing moves before a match
  size_t keep = i;
  for (; i < n; ++i) {
    if (lab[i] == label) {
      out->push_back(id[i]);
    } else {
      id[keep] = id[i];
      lab[keep] = lab[i];
      ++keep;
    }
  }
  ids->resize(keep);
  row->resize(keep);
}

}  // namespace tcomp
