#ifndef TCOMP_UTIL_ARENA_H_
#define TCOMP_UTIL_ARENA_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

// Under AddressSanitizer the arena poisons what it has not handed out, so
// an overrun from one span into the next is reported; see Arena.
#if defined(__SANITIZE_ADDRESS__)
#define TCOMP_ARENA_POISON 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCOMP_ARENA_POISON 1
#endif
#endif
#ifdef TCOMP_ARENA_POISON
#include <sanitizer/asan_interface.h>
#endif

namespace tcomp {

/// Bump allocator for per-snapshot scratch. The hot paths (SoA snapshot
/// views, the ε sweep's grid and candidate/survivor buffers, the neighbor
/// table) allocate a handful of flat arrays every snapshot; individually
/// heap-allocating them is pure churn — the sizes are near-identical
/// snapshot to snapshot. An Arena hands
/// out pointers by bumping a cursor through one retained block:
///
///   - AllocateArray<T>(n) returns n uninitialized T slots (T must be
///     trivially copyable and trivially destructible — no destructors
///     ever run). Blocks are allocated without a zero-fill, so a caller
///     writes every slot before it reads it, and Reset() touches no page
///     of the block it allocates;
///   - pointers stay valid until the next Reset(), never across it;
///   - Reset() rewinds the cursor and *keeps the capacity*, so after a
///     warm-up snapshot has established the high-water mark the steady
///     state performs zero heap allocations per snapshot (asserted by the
///     steady-state test in tests/soa_differential_test.cc).
///
/// Allocations that overflow the retained block go to overflow blocks
/// (existing pointers must never be invalidated mid-snapshot); Reset()
/// then consolidates the total into one larger retained block, so
/// overflow is a warm-up phenomenon, not a steady-state one.
///
/// Under AddressSanitizer (TCOMP_ARENA_POISON) the retained block is
/// poisoned when it is created and on every Reset(), each span is
/// unpoisoned as it is handed out, and a poisoned redzone follows it, so
/// a read or write past a span's end is reported instead of landing in
/// the next span. Overflow blocks are separate heap allocations that
/// ASan guards already. Other builds compile none of this: the redzone
/// is 0 and the poison calls are empty.
///
/// Not thread-safe; one arena per owner, like the discoverers.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
#ifdef TCOMP_ARENA_POISON
  ~Arena() { Unpoison(block_.get(), capacity_); }
#endif

  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_copyable<T>::value &&
                      std::is_trivially_destructible<T>::value,
                  "Arena hands out raw uninitialized storage");
    const size_t bytes = count * sizeof(T);
    return static_cast<T*>(AllocateBytes(bytes, alignof(T)));
  }

  /// Rewinds the cursor; capacity (including any overflow taken since the
  /// last Reset) is consolidated into the single retained block.
  void Reset() {
    if (!overflow_.empty()) {
      // Grow the retained block to the whole high-water mark, rounded up
      // so repeated small overshoots converge instead of reallocating
      // every snapshot.
      size_t want = used_ + overflow_bytes_;
      size_t capacity = capacity_ < 64 ? 64 : capacity_;
      while (capacity < want) capacity *= 2;
      Unpoison(block_.get(), capacity_);
      block_ = std::make_unique_for_overwrite<unsigned char[]>(capacity);
      capacity_ = capacity;
      overflow_.clear();
      overflow_bytes_ = 0;
    }
    used_ = 0;
    Poison(block_.get(), capacity_);
  }

  /// Total heap bytes this arena holds. Stable across snapshots once the
  /// workload's high-water mark has been seen — the no-heap-growth
  /// invariant the steady-state test pins.
  size_t allocated_bytes() const { return capacity_ + overflow_bytes_; }

  /// Bytes handed out since the last Reset() (diagnostic).
  size_t used_bytes() const { return used_ + overflow_bytes_; }

 private:
  void* AllocateBytes(size_t bytes, size_t align) {
    if (align < kSpanAlign) align = kSpanAlign;
    size_t aligned = (used_ + (align - 1)) & ~(align - 1);
    if (aligned + bytes + kRedzone <= capacity_) {
      used_ = aligned + bytes + kRedzone;
      Unpoison(block_.get() + aligned, bytes);
      return block_.get() + aligned;
    }
    // Overflow: a dedicated block, consolidated at the next Reset().
    // new unsigned char[] storage is aligned for every fundamental type
    // (__STDCPP_DEFAULT_NEW_ALIGNMENT__ ≥ 16).
    overflow_.push_back(
        std::make_unique_for_overwrite<unsigned char[]>(bytes));
    overflow_bytes_ += bytes;
    return overflow_.back().get();
  }

#ifdef TCOMP_ARENA_POISON
  // Spans start on an ASan shadow granule and are followed by two
  // poisoned granules.
  static constexpr size_t kSpanAlign = 8;
  static constexpr size_t kRedzone = 16;
  static void Poison(unsigned char* p, size_t n) {
    ASAN_POISON_MEMORY_REGION(p, n);
  }
  static void Unpoison(unsigned char* p, size_t n) {
    ASAN_UNPOISON_MEMORY_REGION(p, n);
  }
#else
  static constexpr size_t kSpanAlign = 1;
  static constexpr size_t kRedzone = 0;
  static void Poison(unsigned char*, size_t) {}
  static void Unpoison(unsigned char*, size_t) {}
#endif

  std::unique_ptr<unsigned char[]> block_;
  size_t capacity_ = 0;
  size_t used_ = 0;
  std::vector<std::unique_ptr<unsigned char[]>> overflow_;
  size_t overflow_bytes_ = 0;
};

}  // namespace tcomp

#endif  // TCOMP_UTIL_ARENA_H_
