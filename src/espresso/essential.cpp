// ESSENTIAL: split a prime cover into essential and non-essential parts.
// A cube is (relatively) essential when the rest of the cover plus the
// dc-set does not cover it; with a prime cover this identifies the
// essential primes that must appear in every prime irredundant cover.

#include "espresso/espresso.h"

namespace picola::esp {

std::pair<Cover, Cover> essential_split(const Cover& F, const Cover& D) {
  const CubeSpace& s = F.space();
  Cover ess(s);
  Cover rest(s);
  for (int i = 0; i < F.size(); ++i) {
    // Covered by the other cubes plus D?
    if (is_tautology(detail::cofactor_of_rest(F, i, D)))
      rest.add(F[i]);
    else
      ess.add(F[i]);
  }
  return {std::move(ess), std::move(rest)};
}

}  // namespace picola::esp
