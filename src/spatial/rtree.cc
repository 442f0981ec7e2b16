#include "spatial/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.h"

namespace tcomp {

void Rect::Extend(const Rect& o) {
  min_x = std::min(min_x, o.min_x);
  min_y = std::min(min_y, o.min_y);
  max_x = std::max(max_x, o.max_x);
  max_y = std::max(max_y, o.max_y);
}

double Rect::EnlargementFor(const Rect& o) const {
  Rect grown = *this;
  grown.Extend(o);
  return grown.Area() - Area();
}

namespace {

double RectPointDistance2(const Rect& r, Point p) {
  double dx = std::max({r.min_x - p.x, 0.0, p.x - r.max_x});
  double dy = std::max({r.min_y - p.y, 0.0, p.y - r.max_y});
  return dx * dx + dy * dy;
}

}  // namespace

RTree::RTree(int max_entries)
    : max_entries_(max_entries), min_entries_(std::max(2, max_entries / 2)) {
  TCOMP_CHECK_GE(max_entries, 4);
}

int32_t RTree::NewNode(bool leaf, int32_t parent) {
  int32_t idx;
  if (!free_nodes_.empty()) {
    idx = free_nodes_.back();
    free_nodes_.pop_back();
    nodes_[idx] = Node{};
  } else {
    idx = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[idx].leaf = leaf;
  nodes_[idx].parent = parent;
  return idx;
}

Rect RTree::NodeRect(int32_t n) const {
  const Node& node = nodes_[n];
  TCOMP_DCHECK(!node.entries.empty());
  Rect r = node.entries[0].rect;
  for (size_t i = 1; i < node.entries.size(); ++i) {
    r.Extend(node.entries[i].rect);
  }
  return r;
}

void RTree::RefreshUpward(int32_t n) {
  while (nodes_[n].parent >= 0) {
    int32_t parent = nodes_[n].parent;
    for (Entry& e : nodes_[parent].entries) {
      if (e.child == n) {
        e.rect = NodeRect(n);
        break;
      }
    }
    n = parent;
  }
}

void RTree::HandleOverflow(int32_t n) {
  while (n >= 0 &&
         nodes_[n].entries.size() > static_cast<size_t>(max_entries_)) {
    // Quadratic split (Guttman): pick the pair wasting the most area as
    // seeds, then assign greedily by enlargement.
    std::vector<Entry> entries = std::move(nodes_[n].entries);
    size_t seed_a = 0, seed_b = 1;
    double worst = -1.0;
    for (size_t i = 0; i < entries.size(); ++i) {
      for (size_t j = i + 1; j < entries.size(); ++j) {
        Rect merged = entries[i].rect;
        merged.Extend(entries[j].rect);
        double waste = merged.Area() - entries[i].rect.Area() -
                       entries[j].rect.Area();
        if (waste > worst) {
          worst = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }

    int32_t sibling = NewNode(nodes_[n].leaf, nodes_[n].parent);
    std::vector<Entry> group_a = {entries[seed_a]};
    std::vector<Entry> group_b = {entries[seed_b]};
    Rect rect_a = entries[seed_a].rect;
    Rect rect_b = entries[seed_b].rect;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (i == seed_a || i == seed_b) continue;
      size_t remaining = entries.size() - i;
      // Force-assign to honor the minimum fill.
      if (group_a.size() + remaining <= static_cast<size_t>(min_entries_)) {
        group_a.push_back(entries[i]);
        rect_a.Extend(entries[i].rect);
        continue;
      }
      if (group_b.size() + remaining <= static_cast<size_t>(min_entries_)) {
        group_b.push_back(entries[i]);
        rect_b.Extend(entries[i].rect);
        continue;
      }
      double grow_a = rect_a.EnlargementFor(entries[i].rect);
      double grow_b = rect_b.EnlargementFor(entries[i].rect);
      if (grow_a < grow_b || (grow_a == grow_b &&
                              group_a.size() <= group_b.size())) {
        group_a.push_back(entries[i]);
        rect_a.Extend(entries[i].rect);
      } else {
        group_b.push_back(entries[i]);
        rect_b.Extend(entries[i].rect);
      }
    }
    nodes_[n].entries = std::move(group_a);
    nodes_[sibling].entries = std::move(group_b);
    if (!nodes_[sibling].leaf) {
      for (const Entry& e : nodes_[sibling].entries) {
        nodes_[e.child].parent = sibling;
      }
    }

    int32_t parent = nodes_[n].parent;
    if (parent < 0) {
      // Root split: grow the tree.
      int32_t new_root = NewNode(/*leaf=*/false, -1);
      nodes_[n].parent = new_root;
      nodes_[sibling].parent = new_root;
      nodes_[new_root].entries.push_back(Entry{NodeRect(n), n, 0});
      nodes_[new_root].entries.push_back(Entry{NodeRect(sibling), sibling,
                                               0});
      root_ = new_root;
      return;
    }
    for (Entry& e : nodes_[parent].entries) {
      if (e.child == n) {
        e.rect = NodeRect(n);
        break;
      }
    }
    nodes_[parent].entries.push_back(Entry{NodeRect(sibling), sibling, 0});
    n = parent;
  }
  if (n >= 0) RefreshUpward(n);
}

void RTree::Insert(ObjectId id, Point p) {
  Rect r = Rect::ForPoint(p);
  if (root_ < 0) {
    root_ = NewNode(/*leaf=*/true, -1);
  }
  // Choose leaf by least enlargement, ties by smaller area.
  int32_t n = root_;
  while (!nodes_[n].leaf) {
    Entry* best = nullptr;
    double best_growth = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (Entry& e : nodes_[n].entries) {
      double growth = e.rect.EnlargementFor(r);
      double area = e.rect.Area();
      if (growth < best_growth ||
          (growth == best_growth && area < best_area)) {
        best = &e;
        best_growth = growth;
        best_area = area;
      }
    }
    best->rect.Extend(r);
    n = best->child;
  }
  nodes_[n].entries.push_back(Entry{r, -1, id});
  ++count_;
  if (nodes_[n].entries.size() > static_cast<size_t>(max_entries_)) {
    HandleOverflow(n);
  } else {
    RefreshUpward(n);
  }
}

void RTree::CollectPoints(int32_t n, std::vector<Entry>* out) const {
  const Node& node = nodes_[n];
  if (node.leaf) {
    out->insert(out->end(), node.entries.begin(), node.entries.end());
    return;
  }
  for (const Entry& e : node.entries) CollectPoints(e.child, out);
}

bool RTree::Delete(ObjectId id, Point p) {
  if (root_ < 0) return false;
  Rect r = Rect::ForPoint(p);
  // Find the leaf holding the entry.
  int32_t found_leaf = -1;
  size_t found_idx = 0;
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    int32_t n = stack.back();
    stack.pop_back();
    const Node& node = nodes_[n];
    if (node.leaf) {
      for (size_t i = 0; i < node.entries.size(); ++i) {
        if (node.entries[i].id == id &&
            node.entries[i].rect.min_x == p.x &&
            node.entries[i].rect.min_y == p.y) {
          found_leaf = n;
          found_idx = i;
          break;
        }
      }
      if (found_leaf >= 0) break;
    } else {
      for (const Entry& e : node.entries) {
        if (e.rect.Intersects(r)) stack.push_back(e.child);
      }
    }
  }
  if (found_leaf < 0) return false;

  nodes_[found_leaf].entries.erase(nodes_[found_leaf].entries.begin() +
                                   static_cast<int64_t>(found_idx));
  --count_;

  // Condense: walk upward removing underfull nodes; orphaned points are
  // reinserted (point tree — subtrees reduce to their points).
  std::vector<Entry> orphans;
  int32_t n = found_leaf;
  while (n != root_ &&
         nodes_[n].entries.size() < static_cast<size_t>(min_entries_)) {
    int32_t parent = nodes_[n].parent;
    CollectPoints(n, &orphans);
    auto& pe = nodes_[parent].entries;
    for (size_t i = 0; i < pe.size(); ++i) {
      if (pe[i].child == n) {
        pe.erase(pe.begin() + static_cast<int64_t>(i));
        break;
      }
    }
    free_nodes_.push_back(n);
    n = parent;
  }
  if (!nodes_[n].entries.empty()) RefreshUpward(n);

  // Shrink the root: a non-leaf root with one child hands over.
  while (root_ >= 0 && !nodes_[root_].leaf &&
         nodes_[root_].entries.size() == 1) {
    int32_t child = nodes_[root_].entries[0].child;
    nodes_[child].parent = -1;
    free_nodes_.push_back(root_);
    root_ = child;
  }
  if (root_ >= 0 && nodes_[root_].leaf && nodes_[root_].entries.empty() &&
      count_ == 0) {
    free_nodes_.push_back(root_);
    root_ = -1;
  }

  count_ -= orphans.size();
  for (const Entry& e : orphans) {
    Insert(e.id, Point{e.rect.min_x, e.rect.min_y});
  }
  return true;
}

bool RTree::Update(ObjectId id, Point from, Point to) {
  if (!Delete(id, from)) return false;
  Insert(id, to);
  return true;
}

std::vector<ObjectId> RTree::Search(Point center, double radius) const {
  std::vector<ObjectId> out;
  if (root_ < 0) return out;
  double r2 = radius * radius;
  Rect query{center.x - radius, center.y - radius, center.x + radius,
             center.y + radius};
  std::vector<int32_t> stack = {root_};
  while (!stack.empty()) {
    int32_t n = stack.back();
    stack.pop_back();
    ++nodes_visited_;
    const Node& node = nodes_[n];
    if (node.leaf) {
      for (const Entry& e : node.entries) {
        Point p{e.rect.min_x, e.rect.min_y};
        if (WithinEps(p, center, r2)) out.push_back(e.id);
      }
    } else {
      for (const Entry& e : node.entries) {
        if (e.rect.Intersects(query) &&
            RectPointDistance2(e.rect, center) <= r2) {
          stack.push_back(e.child);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

int RTree::height() const {
  if (root_ < 0) return 0;
  int h = 1;
  int32_t n = root_;
  while (!nodes_[n].leaf) {
    n = nodes_[n].entries[0].child;
    ++h;
  }
  return h;
}

void RTree::BulkLoad(const std::vector<ObjectPosition>& items) {
  nodes_.clear();
  free_nodes_.clear();
  root_ = -1;
  count_ = items.size();
  if (items.empty()) return;

  // Sort-Tile-Recursive: sort by x, slice into vertical strips of
  // ~sqrt(n/M) width, sort each strip by y, pack leaves.
  std::vector<ObjectPosition> sorted = items;
  std::sort(sorted.begin(), sorted.end(),
            [](const ObjectPosition& a, const ObjectPosition& b) {
              if (a.pos.x != b.pos.x) return a.pos.x < b.pos.x;
              return a.pos.y < b.pos.y;
            });
  const size_t M = static_cast<size_t>(max_entries_);
  size_t leaf_count = (sorted.size() + M - 1) / M;
  size_t strips = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(leaf_count))));
  size_t per_strip = (sorted.size() + strips - 1) / strips;

  std::vector<int32_t> level;  // current level's node indices
  for (size_t s = 0; s < strips; ++s) {
    size_t begin = s * per_strip;
    if (begin >= sorted.size()) break;
    size_t end = std::min(sorted.size(), begin + per_strip);
    std::sort(sorted.begin() + static_cast<int64_t>(begin),
              sorted.begin() + static_cast<int64_t>(end),
              [](const ObjectPosition& a, const ObjectPosition& b) {
                if (a.pos.y != b.pos.y) return a.pos.y < b.pos.y;
                return a.pos.x < b.pos.x;
              });
    for (size_t i = begin; i < end; i += M) {
      int32_t leaf = NewNode(/*leaf=*/true, -1);
      for (size_t k = i; k < std::min(end, i + M); ++k) {
        nodes_[leaf].entries.push_back(
            Entry{Rect::ForPoint(sorted[k].pos), -1, sorted[k].id});
      }
      level.push_back(leaf);
    }
  }

  // Pack upper levels until one root remains.
  while (level.size() > 1) {
    std::vector<int32_t> upper;
    for (size_t i = 0; i < level.size(); i += M) {
      int32_t n = NewNode(/*leaf=*/false, -1);
      for (size_t k = i; k < std::min(level.size(), i + M); ++k) {
        nodes_[level[k]].parent = n;
        nodes_[n].entries.push_back(Entry{NodeRect(level[k]), level[k], 0});
      }
      upper.push_back(n);
    }
    level = std::move(upper);
  }
  root_ = level[0];
}

bool RTree::CheckNode(int32_t n, int depth, int leaf_depth,
                      size_t* points) const {
  const Node& node = nodes_[n];
  if (node.leaf) {
    if (depth != leaf_depth) return false;
    *points += node.entries.size();
    return true;
  }
  for (const Entry& e : node.entries) {
    if (nodes_[e.child].parent != n) return false;
    Rect actual = NodeRect(e.child);
    if (actual.min_x < e.rect.min_x - 1e-9 ||
        actual.min_y < e.rect.min_y - 1e-9 ||
        actual.max_x > e.rect.max_x + 1e-9 ||
        actual.max_y > e.rect.max_y + 1e-9) {
      return false;
    }
    if (!CheckNode(e.child, depth + 1, leaf_depth, points)) return false;
  }
  return true;
}

bool RTree::CheckInvariants() const {
  if (root_ < 0) return count_ == 0;
  size_t points = 0;
  if (!CheckNode(root_, 1, height(), &points)) return false;
  return points == count_;
}

Clustering DbscanRtree(const Snapshot& snapshot, const DbscanParams& params,
                       RTree* tree, const Snapshot* previous) {
  if (previous == nullptr) {
    std::vector<ObjectPosition> items;
    items.reserve(snapshot.size());
    for (size_t i = 0; i < snapshot.size(); ++i) {
      items.push_back(ObjectPosition{snapshot.id(i), snapshot.pos(i)});
    }
    tree->BulkLoad(items);
  } else {
    // Incremental maintenance: delete+reinsert every moved object —
    // the per-snapshot update pattern the paper cites as too costly.
    // One linear merge instead of a binary search per object.
    for (const IdMergeItem& m :
         MergeIdSequences(previous->ids(), snapshot.ids())) {
      if (m.index_b == Snapshot::kNpos) {
        tree->Delete(m.id, previous->pos(m.index_a));
      } else if (m.index_a == Snapshot::kNpos) {
        tree->Insert(m.id, snapshot.pos(m.index_b));
      } else if (snapshot.pos(m.index_b).x != previous->pos(m.index_a).x ||
                 snapshot.pos(m.index_b).y != previous->pos(m.index_a).y) {
        tree->Update(m.id, previous->pos(m.index_a),
                     snapshot.pos(m.index_b));
      }
    }
  }

  // Each row is the tree's ε-search from its point (which finds the point
  // itself), appended to the shared neighbor table.
  const size_t n = snapshot.size();
  std::vector<uint32_t> offsets(1, 0);
  std::vector<uint32_t> entries;
  offsets.reserve(n + 1);
  for (uint32_t i = 0; i < n; ++i) {
    for (ObjectId id : tree->Search(snapshot.pos(i), params.epsilon)) {
      size_t idx = snapshot.IndexOf(id);
      TCOMP_DCHECK(idx != Snapshot::kNpos);
      entries.push_back(static_cast<uint32_t>(idx));
    }
    offsets.push_back(static_cast<uint32_t>(entries.size()));
  }
  return internal::BuildClusteringFromCores(
      snapshot, NeighborTable{n, offsets.data(), entries.data()}, params.mu);
}

}  // namespace tcomp
