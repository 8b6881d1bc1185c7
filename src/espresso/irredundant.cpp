// IRREDUNDANT: drop cubes covered by the remainder of the cover plus the
// dc-set.  The result is an irredundant cover of the same function.

#include <algorithm>

#include "espresso/espresso.h"

namespace picola::esp {

Cover irredundant(Cover F, const Cover& D) {
  const CubeSpace& s = F.space();
  F.remove_empty();
  F.remove_contained();
  // Try to remove small cubes first so the big primes carry the cover.
  F.sort_by_size_asc();
  std::vector<bool> removed(static_cast<size_t>(F.size()), false);
  for (int i = 0; i < F.size(); ++i) {
    // F[i] is redundant when the rest of the cover plus D contains it.
    if (is_tautology(detail::cofactor_of_rest(F, i, D, &removed)))
      removed[static_cast<size_t>(i)] = true;
  }
  Cover out(s);
  for (int i = 0; i < F.size(); ++i)
    if (!removed[static_cast<size_t>(i)]) out.add(F[i]);
  return out;
}

}  // namespace picola::esp
