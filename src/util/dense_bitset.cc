#include "util/dense_bitset.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace tcomp {

void DenseBitset::Resize(size_t universe) {
  universe_ = universe;
  words_.assign((universe + 63) / 64, 0);
}

void DenseBitset::Set(BitsetId id) {
  TCOMP_DCHECK(static_cast<size_t>(id) < universe_);
  words_[id >> 6] |= uint64_t{1} << (id & 63);
}

void DenseBitset::Clear(BitsetId id) {
  TCOMP_DCHECK(static_cast<size_t>(id) < universe_);
  words_[id >> 6] &= ~(uint64_t{1} << (id & 63));
}

void DenseBitset::ClearAll() {
  std::fill(words_.begin(), words_.end(), uint64_t{0});
}

void DenseBitset::SetSparse(const BitsetIdVector& ids) {
  for (BitsetId id : ids) {
    if (static_cast<size_t>(id) >= universe_) break;  // sorted: rest too big
    words_[id >> 6] |= uint64_t{1} << (id & 63);
  }
}

void DenseBitset::ClearSparse(const BitsetIdVector& ids) {
  for (BitsetId id : ids) {
    if (static_cast<size_t>(id) >= universe_) break;
    words_[id >> 6] &= ~(uint64_t{1} << (id & 63));
  }
}

void DenseBitset::AssignSorted(const BitsetIdVector& ids) {
  ClearAll();
  SetSparse(ids);
}

size_t DenseBitset::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

void DenseBitset::IntersectWith(const DenseBitset& other) {
  const size_t common = std::min(words_.size(), other.words_.size());
  for (size_t i = 0; i < common; ++i) words_[i] &= other.words_[i];
  std::fill(words_.begin() + static_cast<ptrdiff_t>(common), words_.end(),
            uint64_t{0});
}

void DenseBitset::UnionWith(const DenseBitset& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
    universe_ = other.universe_;
  }
  for (size_t i = 0; i < other.words_.size(); ++i) {
    words_[i] |= other.words_[i];
  }
}

void DenseBitset::SubtractWith(const DenseBitset& other) {
  const size_t common = std::min(words_.size(), other.words_.size());
  for (size_t i = 0; i < common; ++i) words_[i] &= ~other.words_[i];
}

bool DenseBitset::IsSubsetOf(const DenseBitset& other) const {
  const size_t common = std::min(words_.size(), other.words_.size());
  for (size_t i = 0; i < common; ++i) {
    if (words_[i] & ~other.words_[i]) return false;
  }
  for (size_t i = common; i < words_.size(); ++i) {
    if (words_[i]) return false;
  }
  return true;
}

bool DenseBitset::Intersects(const DenseBitset& other) const {
  const size_t common = std::min(words_.size(), other.words_.size());
  for (size_t i = 0; i < common; ++i) {
    if (words_[i] & other.words_[i]) return true;
  }
  return false;
}

size_t DenseBitset::IntersectCount(const DenseBitset& other) const {
  const size_t common = std::min(words_.size(), other.words_.size());
  size_t n = 0;
  for (size_t i = 0; i < common; ++i) {
    n += static_cast<size_t>(std::popcount(words_[i] & other.words_[i]));
  }
  return n;
}

BitsetIdVector DenseBitset::ToSorted() const {
  BitsetIdVector out;
  ToSorted(&out);
  return out;
}

void DenseBitset::ToSorted(BitsetIdVector* out) const {
  out->clear();
  for (size_t i = 0; i < words_.size(); ++i) {
    uint64_t w = words_[i];
    while (w != 0) {
      out->push_back(static_cast<BitsetId>(
          i * 64 + static_cast<size_t>(std::countr_zero(w))));
      w &= w - 1;
    }
  }
}

void IntersectInto(const BitsetIdVector& a, const DenseBitset& bits,
                   BitsetIdVector* out) {
  out->clear();
  for (BitsetId id : a) {
    if (static_cast<size_t>(id) >= bits.universe()) break;  // sorted input
    if (bits.Test(id)) out->push_back(id);
  }
}

size_t IntersectCountWith(const BitsetIdVector& a, const DenseBitset& bits) {
  size_t n = 0;
  for (BitsetId id : a) {
    if (static_cast<size_t>(id) >= bits.universe()) break;
    if (bits.Test(id)) ++n;
  }
  return n;
}

bool IntersectsWith(const BitsetIdVector& a, const DenseBitset& bits) {
  for (BitsetId id : a) {
    if (static_cast<size_t>(id) >= bits.universe()) break;
    if (bits.Test(id)) return true;
  }
  return false;
}

}  // namespace tcomp
