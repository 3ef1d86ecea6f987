#include "index/rtree.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <unordered_map>

namespace fnproxy::index {

using geometry::Hyperrectangle;

/// One slot of a node: either (bbox, child) for internal nodes or
/// (bbox, id) for leaves.
struct RTreeIndex::NodeEntry {
  Hyperrectangle bbox;
  std::unique_ptr<Node> child;  // Null in leaf nodes.
  EntryId id = 0;               // Meaningful in leaf nodes only.
};

struct RTreeIndex::Node {
  bool leaf = true;
  Node* parent = nullptr;
  std::vector<NodeEntry> entries;

  Hyperrectangle ComputeBBox() const {
    assert(!entries.empty());
    Hyperrectangle box = entries[0].bbox;
    for (size_t i = 1; i < entries.size(); ++i) {
      box = Hyperrectangle::Union(box, entries[i].bbox);
    }
    return box;
  }
};

namespace {

/// Volume increase of `base` if it were grown to cover `extra`.
double Enlargement(const Hyperrectangle& base, const Hyperrectangle& extra) {
  return Hyperrectangle::Union(base, extra).Volume() - base.Volume();
}

}  // namespace

RTreeIndex::RTreeIndex(size_t max_entries)
    : root_(std::make_unique<Node>()), max_entries_(max_entries) {
  assert(max_entries_ >= 4);
  min_entries_ = std::max<size_t>(2, max_entries_ * 2 / 5);
}

RTreeIndex::~RTreeIndex() = default;

size_t RTreeIndex::Height() const {
  if (size_ == 0) return 0;
  size_t height = 1;
  const Node* node = root_.get();
  while (!node->leaf) {
    ++height;
    node = node->entries[0].child.get();
  }
  return height;
}

RTreeIndex::Node* RTreeIndex::ChooseLeaf(const Hyperrectangle& bbox,
                                         size_t* comparisons) {
  Node* node = root_.get();
  while (!node->leaf) {
    NodeEntry* best = nullptr;
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_volume = std::numeric_limits<double>::infinity();
    for (NodeEntry& entry : node->entries) {
      ++*comparisons;
      double enlargement = Enlargement(entry.bbox, bbox);
      double volume = entry.bbox.Volume();
      if (enlargement < best_enlargement ||
          (enlargement == best_enlargement && volume < best_volume)) {
        best = &entry;
        best_enlargement = enlargement;
        best_volume = volume;
      }
    }
    node = best->child.get();
  }
  return node;
}

void RTreeIndex::SplitNode(Node* node, size_t* comparisons) {
  // Quadratic split (Guttman): pick the pair of entries wasting the most
  // area as seeds, then assign remaining entries by strongest preference.
  std::vector<NodeEntry> entries = std::move(node->entries);
  node->entries.clear();

  size_t seed_a = 0, seed_b = 1;
  double worst_waste = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < entries.size(); ++i) {
    for (size_t j = i + 1; j < entries.size(); ++j) {
      ++*comparisons;
      double waste = Hyperrectangle::Union(entries[i].bbox, entries[j].bbox).Volume() -
                     entries[i].bbox.Volume() - entries[j].bbox.Volume();
      if (waste > worst_waste) {
        worst_waste = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }

  auto sibling = std::make_unique<Node>();
  sibling->leaf = node->leaf;
  sibling->parent = node->parent;

  Hyperrectangle box_a = entries[seed_a].bbox;
  Hyperrectangle box_b = entries[seed_b].bbox;
  std::vector<NodeEntry> remaining;
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i == seed_a) {
      if (entries[i].child) entries[i].child->parent = node;
      node->entries.push_back(std::move(entries[i]));
    } else if (i == seed_b) {
      if (entries[i].child) entries[i].child->parent = sibling.get();
      sibling->entries.push_back(std::move(entries[i]));
    } else {
      remaining.push_back(std::move(entries[i]));
    }
  }

  while (!remaining.empty()) {
    // If one group must take everything left to reach minimum fill, do so.
    if (node->entries.size() + remaining.size() == min_entries_) {
      for (NodeEntry& entry : remaining) {
        box_a = Hyperrectangle::Union(box_a, entry.bbox);
        if (entry.child) entry.child->parent = node;
        node->entries.push_back(std::move(entry));
      }
      break;
    }
    if (sibling->entries.size() + remaining.size() == min_entries_) {
      for (NodeEntry& entry : remaining) {
        box_b = Hyperrectangle::Union(box_b, entry.bbox);
        if (entry.child) entry.child->parent = sibling.get();
        sibling->entries.push_back(std::move(entry));
      }
      break;
    }
    // Pick the entry with the strongest preference for one group.
    size_t best_index = 0;
    double best_diff = -1.0;
    double best_d_a = 0.0, best_d_b = 0.0;
    for (size_t i = 0; i < remaining.size(); ++i) {
      *comparisons += 2;
      double d_a = Enlargement(box_a, remaining[i].bbox);
      double d_b = Enlargement(box_b, remaining[i].bbox);
      double diff = std::abs(d_a - d_b);
      if (diff > best_diff) {
        best_diff = diff;
        best_index = i;
        best_d_a = d_a;
        best_d_b = d_b;
      }
    }
    NodeEntry entry = std::move(remaining[best_index]);
    remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best_index));
    bool to_a;
    if (best_d_a != best_d_b) {
      to_a = best_d_a < best_d_b;
    } else if (box_a.Volume() != box_b.Volume()) {
      to_a = box_a.Volume() < box_b.Volume();
    } else {
      to_a = node->entries.size() <= sibling->entries.size();
    }
    if (to_a) {
      box_a = Hyperrectangle::Union(box_a, entry.bbox);
      if (entry.child) entry.child->parent = node;
      node->entries.push_back(std::move(entry));
    } else {
      box_b = Hyperrectangle::Union(box_b, entry.bbox);
      if (entry.child) entry.child->parent = sibling.get();
      sibling->entries.push_back(std::move(entry));
    }
  }

  if (node->parent == nullptr) {
    // Root split: grow the tree by one level.
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    Node* sibling_raw = sibling.get();
    new_root->entries.push_back(
        NodeEntry{node->ComputeBBox(), std::move(root_), 0});
    new_root->entries.push_back(
        NodeEntry{sibling_raw->ComputeBBox(), std::move(sibling), 0});
    new_root->entries[0].child->parent = new_root.get();
    new_root->entries[1].child->parent = new_root.get();
    root_ = std::move(new_root);
    return;
  }

  // Attach the sibling to the parent and update the node's own box.
  Node* parent = node->parent;
  for (NodeEntry& entry : parent->entries) {
    if (entry.child.get() == node) {
      entry.bbox = node->ComputeBBox();
      break;
    }
  }
  Hyperrectangle sibling_box = sibling->ComputeBBox();
  parent->entries.push_back(NodeEntry{sibling_box, std::move(sibling), 0});
  if (parent->entries.size() > max_entries_) {
    SplitNode(parent, comparisons);
  } else {
    AdjustUpward(parent);
  }
}

void RTreeIndex::AdjustUpward(Node* node) {
  while (node->parent != nullptr) {
    Node* parent = node->parent;
    for (NodeEntry& entry : parent->entries) {
      if (entry.child.get() == node) {
        entry.bbox = node->ComputeBBox();
        break;
      }
    }
    node = parent;
  }
}

void RTreeIndex::Insert(EntryId id, const Hyperrectangle& bbox,
                        size_t* comparisons) {
  *comparisons = 0;
  boxes_.emplace(id, bbox);
  Node* leaf = ChooseLeaf(bbox, comparisons);
  leaf->entries.push_back(NodeEntry{bbox, nullptr, id});
  ++size_;
  if (leaf->entries.size() > max_entries_) {
    SplitNode(leaf, comparisons);
  } else {
    AdjustUpward(leaf);
  }
}

bool RTreeIndex::RemoveRecursive(Node* node, EntryId id,
                                 const Hyperrectangle& bbox,
                                 std::vector<NodeEntry>* orphans,
                                 size_t* comparisons) {
  if (node->leaf) {
    for (size_t i = 0; i < node->entries.size(); ++i) {
      ++*comparisons;
      if (node->entries[i].id == id) {
        node->entries.erase(node->entries.begin() + static_cast<ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }
  for (size_t i = 0; i < node->entries.size(); ++i) {
    ++*comparisons;
    if (!node->entries[i].bbox.ContainsRect(bbox)) continue;
    Node* child = node->entries[i].child.get();
    if (!RemoveRecursive(child, id, bbox, orphans, comparisons)) continue;
    if (child->entries.size() < min_entries_) {
      // Underflow: detach the whole child; its entries are reinserted.
      NodeEntry detached = std::move(node->entries[i]);
      node->entries.erase(node->entries.begin() + static_cast<ptrdiff_t>(i));
      // Collect the subtree's leaf entries.
      std::vector<Node*> stack = {detached.child.get()};
      while (!stack.empty()) {
        Node* current = stack.back();
        stack.pop_back();
        if (current->leaf) {
          for (NodeEntry& e : current->entries) orphans->push_back(std::move(e));
        } else {
          for (NodeEntry& e : current->entries) stack.push_back(e.child.get());
        }
      }
    } else {
      node->entries[i].bbox = child->ComputeBBox();
    }
    return true;
  }
  return false;
}

void RTreeIndex::ReinsertOrphans(std::vector<NodeEntry> orphans,
                                 size_t* comparisons) {
  for (NodeEntry& entry : orphans) {
    Node* leaf = ChooseLeaf(entry.bbox, comparisons);
    leaf->entries.push_back(std::move(entry));
    if (leaf->entries.size() > max_entries_) {
      SplitNode(leaf, comparisons);
    } else {
      AdjustUpward(leaf);
    }
  }
}

bool RTreeIndex::Remove(EntryId id, size_t* comparisons) {
  *comparisons = 0;
  auto it = boxes_.find(id);
  if (it == boxes_.end()) return false;
  Hyperrectangle bbox = it->second;
  boxes_.erase(it);

  std::vector<NodeEntry> orphans;
  bool removed = RemoveRecursive(root_.get(), id, bbox, &orphans, comparisons);
  assert(removed);
  if (removed) --size_;
  AdjustUpward(root_.get());
  // Fix boxes along the whole root path by recomputing from the top: the
  // removal may have changed boxes on the descent path.
  // (AdjustUpward fixes ancestors of a node; recompute internal boxes here.)
  std::vector<Node*> post = {root_.get()};
  for (size_t i = 0; i < post.size(); ++i) {
    Node* node = post[i];
    if (!node->leaf) {
      for (NodeEntry& entry : node->entries) post.push_back(entry.child.get());
    }
  }
  for (size_t i = post.size(); i-- > 0;) {
    Node* node = post[i];
    if (!node->leaf) {
      for (NodeEntry& entry : node->entries) {
        entry.bbox = entry.child->ComputeBBox();
      }
    }
  }
  ReinsertOrphans(std::move(orphans), comparisons);
  // Collapse a single-child internal root.
  while (!root_->leaf && root_->entries.size() == 1) {
    std::unique_ptr<Node> child = std::move(root_->entries[0].child);
    child->parent = nullptr;
    root_ = std::move(child);
  }
  if (size_ == 0 && !root_->leaf) {
    root_ = std::make_unique<Node>();
  }
  return removed;
}

std::vector<EntryId> RTreeIndex::SearchIntersecting(
    const Hyperrectangle& query, size_t* comparisons) const {
  *comparisons = 0;
  std::vector<EntryId> result;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    for (const NodeEntry& entry : node->entries) {
      ++*comparisons;
      if (!entry.bbox.IntersectsRect(query)) continue;
      if (node->leaf) {
        result.push_back(entry.id);
      } else {
        stack.push_back(entry.child.get());
      }
    }
  }
  return result;
}

util::Status RTreeIndex::Validate() const {
  size_t total_entries = 0;
  ptrdiff_t leaf_depth = -1;

  struct Frame {
    const Node* node;
    size_t depth;
  };
  std::vector<Frame> stack = {{root_.get(), 0}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const Node* node = frame.node;
    if (node != root_.get()) {
      if (node->entries.size() < min_entries_ ||
          node->entries.size() > max_entries_) {
        return util::Status::Internal(
            std::string("rtree node fill ") +
            std::to_string(node->entries.size()) + " outside [" +
            std::to_string(min_entries_) + ", " +
            std::to_string(max_entries_) + "]");
      }
    } else if (node->entries.size() > max_entries_) {
      return util::Status::Internal("rtree root overfull");
    }
    if (node->leaf) {
      if (leaf_depth == -1) {
        leaf_depth = static_cast<ptrdiff_t>(frame.depth);
      } else if (leaf_depth != static_cast<ptrdiff_t>(frame.depth)) {
        return util::Status::Internal("rtree leaves at different depths");
      }
      total_entries += node->entries.size();
      continue;
    }
    for (const NodeEntry& entry : node->entries) {
      if (entry.child == nullptr) {
        return util::Status::Internal("internal rtree entry lacks a child");
      }
      if (entry.child->parent != node) {
        return util::Status::Internal("rtree parent pointer mismatch");
      }
      Hyperrectangle expected = entry.child->ComputeBBox();
      if (!entry.bbox.ContainsRect(expected) ||
          !expected.ContainsRect(entry.bbox)) {
        return util::Status::Internal("rtree bounding box is not tight");
      }
      stack.push_back({entry.child.get(), frame.depth + 1});
    }
  }
  if (total_entries != size_) {
    return util::Status::Internal(
        std::string("rtree entry count ") + std::to_string(total_entries) +
        " does not match size " + std::to_string(size_));
  }
  if (boxes_.size() != size_) {
    return util::Status::Internal("rtree id map out of sync with tree");
  }
  return util::Status::Ok();
}

}  // namespace fnproxy::index
