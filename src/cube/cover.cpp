#include "cube/cover.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace picola {

void Cover::append(const Cover& other) {
  assert(space_ == other.space_);
  cubes_.insert(cubes_.end(), other.cubes_.begin(), other.cubes_.end());
}

void Cover::remove_empty() {
  cubes_.erase(std::remove_if(cubes_.begin(), cubes_.end(),
                              [&](const Cube& c) { return c.is_empty(space_); }),
               cubes_.end());
}

void Cover::remove_contained() {
  // Sort so that bigger cubes come first; a cube can then only be contained
  // by one appearing earlier.
  sort_by_size_desc(space_);
  std::vector<Cube> kept;
  kept.reserve(cubes_.size());
  for (const Cube& c : cubes_) {
    bool contained = false;
    for (const Cube& k : kept) {
      if (k.contains(c)) {
        contained = true;
        break;
      }
    }
    if (!contained) kept.push_back(c);
  }
  cubes_ = std::move(kept);
}

namespace {

// Stable sort by (minterm count, cube), the count ascending or descending;
// each count is computed once instead of once per comparison.
void sort_by_size(std::vector<Cube>& cubes, const CubeSpace& s, bool desc) {
  std::vector<std::pair<uint64_t, int>> key(cubes.size());
  for (size_t i = 0; i < cubes.size(); ++i)
    key[i] = {cubes[i].num_minterms(s), static_cast<int>(i)};
  std::stable_sort(key.begin(), key.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return desc ? a.first > b.first : a.first < b.first;
    return cubes[static_cast<size_t>(a.second)] <
           cubes[static_cast<size_t>(b.second)];
  });
  std::vector<Cube> sorted;
  sorted.reserve(cubes.size());
  for (const auto& k : key)
    sorted.push_back(std::move(cubes[static_cast<size_t>(k.second)]));
  cubes = std::move(sorted);
}

}  // namespace

void Cover::sort_by_size_desc(const CubeSpace& s) {
  sort_by_size(cubes_, s, /*desc=*/true);
}

void Cover::sort_by_size_asc() { sort_by_size(cubes_, space_, /*desc=*/false); }

void Cover::for_each_minterm(
    const CubeSpace& s, const std::function<void(const std::vector<int>&)>& fn) {
  std::vector<int> vals(static_cast<size_t>(s.num_vars()), 0);
  if (s.num_vars() == 0) {
    fn(vals);
    return;
  }
  while (true) {
    fn(vals);
    int v = s.num_vars() - 1;
    while (v >= 0) {
      if (++vals[static_cast<size_t>(v)] < s.parts(v)) break;
      vals[static_cast<size_t>(v)] = 0;
      --v;
    }
    if (v < 0) break;
  }
}

uint64_t Cover::count_minterms_exact() const {
  uint64_t n = 0;
  for_each_minterm(space_, [&](const std::vector<int>& vals) {
    if (covers_minterm(vals)) ++n;
  });
  return n;
}

bool Cover::covers_minterm(const std::vector<int>& values) const {
  for (const Cube& c : cubes_)
    if (c.covers_minterm(space_, values)) return true;
  return false;
}

std::string Cover::to_string() const {
  std::ostringstream os;
  for (const Cube& c : cubes_) os << c.to_string(space_) << '\n';
  return os.str();
}

}  // namespace picola
