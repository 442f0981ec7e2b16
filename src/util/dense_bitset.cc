#include "util/dense_bitset.h"

#include <bit>

namespace tcomp {

void DenseBitset::Resize(size_t universe) {
  universe_ = universe;
  words_.assign((universe + 63) / 64, 0);
}

void DenseBitset::SetSparse(const BitsetIdVector& ids) {
  for (BitsetId id : ids) {
    if (static_cast<size_t>(id) >= universe_) break;  // sorted: rest too big
    words_[id >> 6] |= uint64_t{1} << (id & 63);
  }
}

size_t DenseBitset::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

void IntersectInto(const BitsetIdVector& a, const DenseBitset& bits,
                   BitsetIdVector* out) {
  out->clear();
  for (BitsetId id : a) {
    if (static_cast<size_t>(id) >= bits.universe()) break;  // sorted input
    if (bits.Test(id)) out->push_back(id);
  }
}

bool IntersectsWith(const BitsetIdVector& a, const DenseBitset& bits) {
  for (BitsetId id : a) {
    if (static_cast<size_t>(id) >= bits.universe()) break;
    if (bits.Test(id)) return true;
  }
  return false;
}

}  // namespace tcomp
