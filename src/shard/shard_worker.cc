#include "shard/shard_worker.h"

namespace tcomp {

void SweepStripe(const Snapshot& snapshot, const ShardSlice& slice,
                 const DbscanParams& params,
                 internal::NeighborTableBuilder* table,
                 StripeScratch* scratch) {
  // Local working set: owned first, then halo. Owned position t is row t,
  // and owned pairs keep their global order, so the sweep's pair-once
  // rule (smaller index) evaluates each owned-owned pair from the same
  // side as over the global indices.
  Arena& arena = scratch->arena;
  arena.Reset();
  const size_t owned = slice.owned.size();
  const size_t m = owned + slice.halo.size();
  uint32_t* global = arena.AllocateArray<uint32_t>(m);
  double* xs = arena.AllocateArray<double>(m);
  double* ys = arena.AllocateArray<double>(m);
  uint8_t* source = arena.AllocateArray<uint8_t>(m);
  for (size_t k = 0; k < m; ++k) {
    global[k] = k < owned ? slice.owned[k] : slice.halo[k - owned];
    const Point p = snapshot.pos(global[k]);
    xs[k] = p.x;
    ys[k] = p.y;
    source[k] = k < owned ? 1 : 0;  // halo: candidate only, never a source
  }
  scratch->global = global;
  scratch->owned = owned;
  scratch->distance_ops = 0;
  scratch->pairs.clear();
  if (owned == 0) return;
  scratch->distance_ops = internal::SweepNeighborPairs(
      xs, ys, m, params.epsilon, source, &arena, &scratch->pairs);
  table->CountPairs(scratch->pairs.data(), scratch->pairs.size(), owned,
                    global);
}

void FillStripeRows(const StripeScratch& scratch,
                    internal::NeighborTableBuilder* table) {
  table->FillPairs(scratch.pairs.data(), scratch.pairs.size(), scratch.owned,
                   scratch.global);
}

}  // namespace tcomp
