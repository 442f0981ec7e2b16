#include "core/buddy_discovery.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <unordered_map>

#include "util/logging.h"
#include "util/sorted_ops.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace tcomp {
namespace {

double EffectiveBuddyRadius(const DiscoveryParams& params) {
  if (params.buddy_radius > 0.0) return params.buddy_radius;
  // Paper recommendation: δγ = ε/2, the largest radius for which Lemma 2
  // can certify density-connected buddies.
  return params.cluster.epsilon / 2.0;
}

}  // namespace

BuddyDiscoverer::BuddyDiscoverer(const DiscoveryParams& params)
    : params_(params), buddies_(EffectiveBuddyRadius(params)) {
  // Like SC, BU reports only closed companions (Definition 5 on outputs).
  log_.set_closed_mode(true);
  buddies_.set_threads(params.cluster.threads);
}

BuddyId BuddyDiscoverer::LiveBuddyOf(ObjectId oid) const {
  const Buddy* b = buddies_.FindBuddyOfObject(oid);
  return b == nullptr ? kNoLiveBuddy : b->id;
}

void BuddyDiscoverer::EnsureIndexed(BuddyId id) {
  if (index_.Contains(id)) return;
  const Buddy* b = buddies_.FindBuddyById(id);
  TCOMP_CHECK(b != nullptr) << "buddy " << id
                            << " is neither indexed nor live";
  index_.Register(id, b->members);
}

void BuddyDiscoverer::ProcessSnapshot(
    const Snapshot& snapshot, std::vector<Companion>* newly_qualified) {
  // --- M-step: buddy maintenance + candidate token expansion. ---
  Timer maintain_timer;
  maintain_timer.Start();
  if (!initialized_) {
    buddies_.Initialize(snapshot);
    initialized_ = true;
    stats_.buddies_total += static_cast<int64_t>(buddies_.buddies().size());
    for (const Buddy& b : buddies_.buddies()) {
      stats_.buddy_member_sum += static_cast<int64_t>(b.members.size());
    }
  } else {
    BuddyMaintenanceStats mstats;
    buddies_.Update(snapshot, &mstats);
    stats_.buddies_total += mstats.total;
    stats_.buddies_unchanged += mstats.unchanged;
    stats_.buddy_member_sum += mstats.member_sum;
    stats_.distance_ops += mstats.distance_ops;

    // Replace retired buddy tokens in stored candidates by their objects
    // (Definition 7: the index knows every referenced id's membership).
    // Expansion is per-candidate independent (the index is read-only
    // here), so candidates are strided over the thread pool.
    const std::vector<BuddyId>& retired = buddies_.retired_ids();
    if (!retired.empty()) {
      ParallelForShards(
          EffectiveShards(params_.cluster.threads, candidates_.size()),
          [&](int shard, int num_shards) {
            for (size_t k = static_cast<size_t>(shard);
                 k < candidates_.size();
                 k += static_cast<size_t>(num_shards)) {
              index_.ExpandRetired(retired, &candidates_[k]);
            }
          });
    }
  }
  maintain_timer.Stop();
  stats_.maintain_seconds += maintain_timer.Seconds();
  RecordStage(Stage::kMaintain, maintain_timer.Seconds());

  // --- C-step: buddy-based clustering (Algorithm 4). ---
  Timer cluster_timer;
  cluster_timer.Start();
  BuddyClusteringStats cstats;
  Clustering clustering =
      BuddyBasedClustering(snapshot, buddies_, params_.cluster, &cstats);
  cluster_timer.Stop();
  stats_.cluster_seconds += cluster_timer.Seconds();
  RecordStage(Stage::kCluster, cluster_timer.Seconds());
  stats_.buddy_pairs_checked += cstats.pairs_checked;
  stats_.buddy_pairs_pruned += cstats.pairs_pruned;
  stats_.distance_ops += cstats.distance_ops;

  // --- I-step: smart-and-closed intersection over atom sets. ---
  Timer intersect_timer;
  intersect_timer.Start();
  const size_t min_size = static_cast<size_t>(params_.size_threshold);

  // Atomize clusters: a buddy wholly inside a cluster becomes one token;
  // straddling buddies contribute loose objects.
  std::vector<AtomSet> cluster_atoms(clustering.clusters.size());
  for (size_t ci = 0; ci < clustering.clusters.size(); ++ci) {
    const ObjectSet& cluster = clustering.clusters[ci];
    AtomSet& atoms = cluster_atoms[ci];
    atoms.size = cluster.size();
    // Group consecutive members by live buddy; a buddy's member list is
    // wholly inside the cluster iff its member count here matches.
    std::unordered_map<BuddyId, uint32_t> counts;
    for (ObjectId o : cluster) {
      BuddyId b = LiveBuddyOf(o);
      TCOMP_DCHECK(b != kNoLiveBuddy);
      ++counts[b];
    }
    for (ObjectId o : cluster) {
      BuddyId b = LiveBuddyOf(o);
      const Buddy* buddy = buddies_.FindBuddyOfObject(o);
      if (buddy != nullptr && counts[b] == buddy->members.size()) {
        atoms.buddy_ids.push_back(b);
      } else {
        atoms.objects.push_back(o);
      }
    }
    SortUnique(&atoms.buddy_ids);
    for (BuddyId b : atoms.buddy_ids) EnsureIndexed(b);
    // `objects` is already sorted (cluster is sorted) and unique.
    // The cluster's expanded set is the raw cluster itself; its signature
    // feeds the O(1) disjointness prefilter in IntersectAtomSets and the
    // closedness prefilter below. Unlike the label table, Bloom
    // signatures work at any id density.
    atoms.signature = SetSignature::Of(cluster);
  }

  // One id → cluster-label table for the snapshot (util/label_rows.h):
  // every candidate probes every cluster, so each membership test inside
  // IntersectAtomSets becomes one lookup. Sparse id universes fail the
  // BitsetProfitable gate and keep the binary-search path. The table is
  // read-only during the parallel I-step, so the shards share it safely.
  const LabelTable* labels =
      cluster_labels_.Assign(snapshot.ids(), clustering.clusters)
          ? &cluster_labels_
          : nullptr;

  auto buddy_of = [this](ObjectId oid) { return LiveBuddyOf(oid); };

  auto report = [&](const AtomSet& atoms, double duration) {
    ReportCompanion(index_.Expand(atoms), duration, newly_qualified);
  };

  std::vector<AtomSet> next;
  next.reserve(candidates_.size() + cluster_atoms.size());

  // Candidates intersect against the clusters independently of each other
  // (cluster atoms, index, and buddy set are read-only here); only the
  // outputs — companion reports and surviving candidates — are order
  // sensitive. So each candidate is processed by one shard into a private
  // outcome, and the outcomes are replayed serially in candidate order:
  // the report sequence, the `next` sequence, and the intersections total
  // are bit-identical to the serial loop.
  struct CandidateOutcome {
    // (qualified, product) in the order the serial loop would emit them.
    std::vector<std::pair<bool, AtomSet>> events;
    int64_t intersections = 0;
  };
  std::vector<CandidateOutcome> outcomes(candidates_.size());
  auto process_candidate = [&](size_t ci) {
    CandidateOutcome& outcome = outcomes[ci];
    double duration = candidates_[ci].duration + snapshot.duration();
    AtomSet working = std::move(candidates_[ci]);

    auto intersect_with = [&](size_t k) {
      ++outcome.intersections;
      AtomIntersection inter =
          IntersectAtomSets(working, cluster_atoms[k], index_, buddy_of,
                            labels, static_cast<int32_t>(k));
      if (!inter.any_overlap) return;  // working set unchanged
      working = std::move(inter.remaining);
      if (inter.result.size < min_size) return;
      inter.result.duration = duration;
      // Qualified companions are output and leave the candidate set
      // (Definition 4: candidate duration < δt).
      outcome.events.emplace_back(duration >= params_.duration_threshold,
                                  std::move(inter.result));
    };

    // Probe the cluster holding the candidate's first object before the
    // rest: an intact candidate is consumed there and the Lemma-1 early
    // stop fires at once. Products don't depend on scan order (hard
    // clustering).
    int32_t first_label = -1;
    {
      ObjectId probe;
      bool has_probe = false;
      if (!working.buddy_ids.empty()) {
        probe = index_.MembersOf(working.buddy_ids.front()).front();
        has_probe = true;
      } else if (!working.objects.empty()) {
        probe = working.objects.front();
        has_probe = true;
      }
      if (has_probe) {
        size_t idx = snapshot.IndexOf(probe);
        if (idx != Snapshot::kNpos) first_label = clustering.labels[idx];
      }
    }
    if (first_label >= 0) intersect_with(static_cast<size_t>(first_label));
    for (size_t k = 0; k < cluster_atoms.size(); ++k) {
      if (working.size < min_size) break;  // smart early stop (Lemma 1)
      if (static_cast<int32_t>(k) == first_label) continue;
      intersect_with(k);
    }
  };
  ParallelForShards(
      EffectiveShards(params_.cluster.threads, candidates_.size()),
      [&](int shard, int num_shards) {
        for (size_t ci = static_cast<size_t>(shard); ci < candidates_.size();
             ci += static_cast<size_t>(num_shards)) {
          process_candidate(ci);
        }
      });
  for (CandidateOutcome& outcome : outcomes) {
    stats_.intersections += outcome.intersections;
    for (auto& [qualified, product] : outcome.events) {
      if (qualified) {
        report(product, product.duration);
      } else {
        next.push_back(std::move(product));
      }
    }
  }
  outcomes.clear();

  // New clusters enter as candidates only if closed (Definition 5).
  // Closure runs inside the I-step timer (stats_.intersect_seconds keeps
  // covering the whole I-step); the nested timer splits it out for the
  // stage sink.
  Timer closure_timer;
  closure_timer.Start();
  for (AtomSet& c : cluster_atoms) {
    if (c.size < min_size) continue;
    double duration = snapshot.duration();
    bool closed = true;
    for (const AtomSet& r : next) {
      // Signature prefilter: c ⊆ r is impossible unless c's Bloom bits
      // and id range sit inside r's. Skips most of the quadratic scan;
      // never false-rejects, so the exact check still decides.
      TCOMP_DCHECK(r.signature == index_.ComposeSignature(r));
      if (r.duration >= duration && c.signature.MaybeSubsetOf(r.signature) &&
          AtomSetIsSubset(c, r, index_, buddy_of)) {
        closed = false;
        break;
      }
    }
    if (!closed) continue;
    c.duration = duration;
    if (duration >= params_.duration_threshold) {
      report(c, duration);
    } else {
      next.push_back(std::move(c));
    }
  }
  closure_timer.Stop();

  candidates_ = std::move(next);

  // Prune the index down to the ids still referenced by candidates.
  std::vector<BuddyId> referenced;
  for (const AtomSet& r : candidates_) {
    referenced.insert(referenced.end(), r.buddy_ids.begin(),
                      r.buddy_ids.end());
  }
  SortUnique(&referenced);
  index_.PruneExcept(referenced);

  intersect_timer.Stop();
  stats_.intersect_seconds += intersect_timer.Seconds();
  RecordStage(Stage::kIntersect,
              intersect_timer.Seconds() - closure_timer.Seconds());
  RecordStage(Stage::kClosure, closure_timer.Seconds());

  // Space cost: atoms stored in candidates plus the index's single copy of
  // each referenced buddy's member list.
  int64_t space = index_.stored_objects();
  for (const AtomSet& r : candidates_) {
    space += static_cast<int64_t>(r.atom_count());
  }
  stats_.candidate_objects_last = space;
  stats_.candidate_objects_peak =
      std::max(stats_.candidate_objects_peak, space);
  ++stats_.snapshots;
  ++snapshot_index_;
}

void BuddyDiscoverer::Reset() {
  buddies_.Clear();
  index_.Clear();
  candidates_.clear();
  initialized_ = false;
  log_.Clear();
  stats_ = DiscoveryStats{};
  snapshot_index_ = 0;
}


Status BuddyDiscoverer::SaveState(std::ostream& out) const {
  SaveCommon(out);
  out << "initialized " << (initialized_ ? 1 : 0) << '\n';

  BuddySet::SerializedState state = buddies_.ExportState();
  out << "buddyset " << state.next_id << ' ' << state.buddies.size()
      << '\n';
  for (const Buddy& b : state.buddies) {
    out << b.id << ' ' << b.radius << ' ' << b.coord_sum.x << ' '
        << b.coord_sum.y << ' ' << b.members.size();
    for (ObjectId o : b.members) out << ' ' << o;
    out << '\n';
  }
  out << "lastpos " << state.last_positions.size() << '\n';
  for (const auto& [oid, pos] : state.last_positions) {
    out << oid << ' ' << pos.x << ' ' << pos.y << '\n';
  }

  // Index entries, id-sorted for a deterministic file.
  std::vector<BuddyId> ids;
  ids.reserve(index_.entries().size());
  // tcomp-lint: allow(unordered-iter): only collects keys; sorted below
  for (const auto& [id, members] : index_.entries()) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  out << "index " << ids.size() << '\n';
  for (BuddyId id : ids) {
    const ObjectSet& members = index_.entries().at(id);
    out << id << ' ' << members.size();
    for (ObjectId o : members) out << ' ' << o;
    out << '\n';
  }

  out << "candidates " << candidates_.size() << '\n';
  for (const AtomSet& r : candidates_) {
    out << r.duration << ' ' << r.size << ' ' << r.buddy_ids.size();
    for (BuddyId b : r.buddy_ids) out << ' ' << b;
    out << ' ' << r.objects.size();
    for (ObjectId o : r.objects) out << ' ' << o;
    out << '\n';
  }
  return Status::OK();
}

Status BuddyDiscoverer::LoadState(std::istream& in) {
  TCOMP_RETURN_IF_ERROR(LoadCommon(in));
  std::string tag;
  int initialized = 0;
  if (!(in >> tag >> initialized) || tag != "initialized") {
    return Status::Corruption("expected 'initialized' section");
  }
  initialized_ = initialized != 0;

  // Every count below is bounded before the resize it sizes (a corrupt
  // checkpoint fails with Corruption instead of a huge allocation), and
  // every set keeps the invariants the buddy structures index by: ids
  // strictly ascending, each object in one buddy, each buddy member with
  // a last position, every value finite.
  BuddySet::SerializedState state;
  size_t nbuddies = 0;
  if (!(in >> tag >> state.next_id >> nbuddies) || tag != "buddyset") {
    return Status::Corruption("expected 'buddyset' section");
  }
  if (nbuddies > kMaxCheckpointCount) {
    return Status::Corruption("implausible buddy count");
  }
  state.buddies.resize(nbuddies);
  ObjectSet buddied;  // every buddy member, sorted below
  for (size_t k = 0; k < nbuddies; ++k) {
    Buddy& b = state.buddies[k];
    if (!(in >> b.id >> b.radius >> b.coord_sum.x >> b.coord_sum.y)) {
      return Status::Corruption("bad buddy record");
    }
    if (b.id >= state.next_id ||
        (k > 0 && b.id <= state.buddies[k - 1].id)) {
      return Status::Corruption(
          "buddy ids not strictly ascending below next_id");
    }
    if (!std::isfinite(b.coord_sum.x) || !std::isfinite(b.coord_sum.y) ||
        !std::isfinite(b.radius) || b.radius < 0.0) {
      return Status::Corruption("buddy center or radius out of range");
    }
    TCOMP_RETURN_IF_ERROR(ReadObjectSet(in, "buddy", &b.members));
    if (b.members.empty()) return Status::Corruption("empty buddy");
    buddied.insert(buddied.end(), b.members.begin(), b.members.end());
  }
  std::sort(buddied.begin(), buddied.end());
  if (std::adjacent_find(buddied.begin(), buddied.end()) != buddied.end()) {
    return Status::Corruption("an object sits in two buddies");
  }
  size_t npos = 0;
  if (!(in >> tag >> npos) || tag != "lastpos") {
    return Status::Corruption("expected 'lastpos' section");
  }
  if (npos > kMaxCheckpointCount) {
    return Status::Corruption("implausible lastpos count");
  }
  state.last_positions.resize(npos);
  for (size_t k = 0; k < npos; ++k) {
    auto& [oid, pos] = state.last_positions[k];
    if (!(in >> oid >> pos.x >> pos.y)) {
      return Status::Corruption("bad lastpos record");
    }
    if (k > 0 && oid <= state.last_positions[k - 1].first) {
      return Status::Corruption("lastpos ids not strictly ascending");
    }
    if (!std::isfinite(pos.x) || !std::isfinite(pos.y)) {
      return Status::Corruption("non-finite lastpos coordinate");
    }
  }
  const auto same_id = [](ObjectId o, const auto& last) {
    return o == last.first;
  };
  if (!std::equal(buddied.begin(), buddied.end(),
                  state.last_positions.begin(), state.last_positions.end(),
                  same_id)) {
    return Status::Corruption("lastpos ids differ from the buddy members");
  }
  buddies_.ImportState(state);

  size_t nindex = 0;
  if (!(in >> tag >> nindex) || tag != "index") {
    return Status::Corruption("expected 'index' section");
  }
  index_.Clear();
  for (size_t i = 0; i < nindex; ++i) {
    BuddyId id = 0;
    if (!(in >> id)) return Status::Corruption("bad index record");
    ObjectSet members;
    TCOMP_RETURN_IF_ERROR(ReadObjectSet(in, "index", &members));
    index_.Register(id, members);
  }

  size_t ncand = 0;
  if (!(in >> tag >> ncand) || tag != "candidates") {
    return Status::Corruption("expected 'candidates' section");
  }
  if (ncand > kMaxCheckpointCount) {
    return Status::Corruption("implausible candidate count");
  }
  candidates_.clear();
  candidates_.reserve(ncand);
  for (size_t i = 0; i < ncand; ++i) {
    AtomSet r;
    size_t nb = 0;
    if (!(in >> r.duration >> r.size >> nb)) {
      return Status::Corruption("bad atom candidate record");
    }
    if (nb > kMaxCheckpointCount) {
      return Status::Corruption("implausible candidate token count");
    }
    r.buddy_ids.resize(nb);
    for (size_t k = 0; k < nb; ++k) {
      if (!(in >> r.buddy_ids[k])) {
        return Status::Corruption("bad candidate buddy token");
      }
      if (k > 0 && r.buddy_ids[k] <= r.buddy_ids[k - 1]) {
        return Status::Corruption(
            "candidate tokens not strictly ascending");
      }
      if (!index_.Contains(r.buddy_ids[k])) {
        return Status::Corruption("candidate references unindexed buddy");
      }
    }
    TCOMP_RETURN_IF_ERROR(ReadObjectSet(in, "candidate", &r.objects));
    // Signatures are derived state, not persisted; rebuild from the index
    // (loaded above) so the prefilters resume immediately.
    r.signature = index_.ComposeSignature(r);
    candidates_.push_back(std::move(r));
  }
  return Status::OK();
}

}  // namespace tcomp
