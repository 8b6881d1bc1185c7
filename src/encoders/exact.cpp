#include "encoders/exact.h"

#include <limits>
#include <stdexcept>

#include "constraints/dichotomy.h"
#include "eval/constraint_eval.h"

namespace picola {

namespace {

// Number of injective code assignments with symbol 0 pinned.  Stops
// multiplying once the product exceeds `cap` (the full product overflows
// long on large problems), so any result above `cap` means "too many".
long count_assignments(int cells, int symbols, long cap) {
  if (symbols > cells) return 0;  // a zero factor: no injective assignment
  long total = 1;
  for (int i = 1; i < symbols && total <= cap; ++i) {
    if (__builtin_mul_overflow(total, cells - i, &total))
      return std::numeric_limits<long>::max();
  }
  return total;
}

}  // namespace

ExactResult exact_encode(const ConstraintSet& cs, const ExactOptions& opt) {
  const int n = cs.num_symbols;
  const int nv = opt.num_bits > 0 ? opt.num_bits : Encoding::min_bits(n);
  const int cells = 1 << nv;
  if (count_assignments(cells, n, opt.max_candidates) > opt.max_candidates)
    throw std::invalid_argument("exact_encode: search space too large");

  Encoding e;
  e.num_symbols = n;
  e.num_bits = nv;
  e.codes.assign(static_cast<size_t>(n), 0);

  ExactResult result;
  bool have_best = false;

  std::vector<bool> used(static_cast<size_t>(cells), false);
  // Complementing any column maps valid encodings to valid encodings with
  // identical costs, so symbol 0 can be pinned to code 0.
  e.codes[0] = 0;
  used[0] = true;

  auto evaluate = [&]() {
    ++result.candidates_evaluated;
    int cost;
    if (opt.objective == ExactObjective::kMinTotalCubes) {
      cost = evaluate_constraints(cs, e).total_cubes;
    } else {
      cost = -count_satisfied_constraints(cs, e);
    }
    if (!have_best || cost < result.best_cost) {
      have_best = true;
      result.best_cost = cost;
      result.encoding = e;
    }
  };

  // Depth-first assignment of codes to symbols 1..n-1.
  auto rec = [&](auto&& self, int symbol) -> void {
    if (symbol == n) {
      evaluate();
      return;
    }
    for (int code = 0; code < cells; ++code) {
      if (used[static_cast<size_t>(code)]) continue;
      used[static_cast<size_t>(code)] = true;
      e.codes[static_cast<size_t>(symbol)] = static_cast<uint32_t>(code);
      self(self, symbol + 1);
      used[static_cast<size_t>(code)] = false;
    }
  };
  rec(rec, 1);
  return result;
}

}  // namespace picola
