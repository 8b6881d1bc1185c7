#include "cube/space.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <sstream>

namespace picola {

CubeSpace::CubeSpace() {
  // Every default-constructed space shares one empty layout.
  static const std::shared_ptr<const Layout> kEmpty =
      CubeSpace(std::vector<int>{}).d_;
  d_ = kEmpty;
}

CubeSpace::CubeSpace(std::vector<int> parts) {
  auto d = std::make_shared<Layout>();
  d->parts = std::move(parts);
  d->offsets.reserve(d->parts.size());
  d->var_begin.reserve(d->parts.size() + 1);
  int off = 0;
  for (size_t v = 0; v < d->parts.size(); ++v) {
    const int p = d->parts[v];
    assert(p >= 1 && "every variable needs at least one part");
    d->offsets.push_back(off);
    d->var_begin.push_back(static_cast<int>(d->var_words.size()));
    const int hi = off + p;  // exclusive
    for (int w = off >> 6; w <= (hi - 1) >> 6; ++w) {
      const int wlo = w << 6;
      const int from = std::max(off, wlo) - wlo;
      const int to = std::min(hi, wlo + 64) - wlo;  // exclusive, 1..64
      uint64_t mask = (to == 64) ? ~uint64_t{0} : ((uint64_t{1} << to) - 1);
      mask &= ~((uint64_t{1} << from) - 1);
      d->var_words.push_back({w, mask});
    }
    d->part_var.insert(d->part_var.end(), static_cast<size_t>(p),
                       static_cast<int>(v));
    off = hi;
  }
  d->var_begin.push_back(static_cast<int>(d->var_words.size()));
  d->total_parts = off;
  d->full.assign(static_cast<size_t>((off + 63) / 64), ~uint64_t{0});
  if (off & 63) d->full.back() = (uint64_t{1} << (off & 63)) - 1;
  d->binary_lo.assign(d->full.size(), 0);
  for (size_t v = 0; v < d->parts.size(); ++v) {
    const int lo = d->offsets[v];
    if (d->parts[v] == 2 && (lo & 63) != 63)
      d->binary_lo[static_cast<size_t>(lo >> 6)] |= uint64_t{1} << (lo & 63);
    else
      d->other_vars.push_back(static_cast<int>(v));
  }
  d_ = std::move(d);
}

CubeSpace CubeSpace::binary(int nvars) {
  // Small binary spaces are requested over and over (one per evaluated
  // constraint), so they are built once and shared.
  constexpr int kShared = 64;
  static const std::vector<CubeSpace> kSmall = [] {
    std::vector<CubeSpace> v;
    for (int n = 0; n < kShared; ++n)
      v.push_back(CubeSpace(std::vector<int>(static_cast<size_t>(n), 2)));
    return v;
  }();
  if (nvars >= 0 && nvars < kShared) return kSmall[static_cast<size_t>(nvars)];
  return CubeSpace(std::vector<int>(static_cast<size_t>(nvars), 2));
}

CubeSpace CubeSpace::multi_valued(std::vector<int> part_counts) {
  return CubeSpace(std::move(part_counts));
}

CubeSpace CubeSpace::fsm_layout(int n_binary, int mv_parts, int out_parts) {
  std::vector<int> parts(static_cast<size_t>(n_binary), 2);
  int mv_var = -1;
  int out_var = -1;
  if (mv_parts > 0) {
    mv_var = static_cast<int>(parts.size());
    parts.push_back(mv_parts);
  }
  if (out_parts > 0) {
    out_var = static_cast<int>(parts.size());
    parts.push_back(out_parts);
  }
  CubeSpace s(std::move(parts));
  s.mv_var_ = mv_var;
  s.output_var_ = out_var;
  return s;
}

uint64_t CubeSpace::num_minterms() const {
  constexpr uint64_t kCap = uint64_t{1} << 62;
  uint64_t n = 1;
  for (int p : d_->parts) {
    if (n > kCap / static_cast<uint64_t>(p)) return kCap;
    n *= static_cast<uint64_t>(p);
  }
  return n;
}

std::string CubeSpace::to_string() const {
  std::ostringstream os;
  os << '[';
  for (int v = 0; v < num_vars(); ++v) {
    if (v) os << ',';
    if (v == mv_var_) os << "mv:";
    if (v == output_var_) os << "out:";
    os << parts(v);
  }
  os << ']';
  return os.str();
}

}  // namespace picola
