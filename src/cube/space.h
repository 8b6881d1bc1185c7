#pragma once
// Multi-valued cube space description.
//
// A CubeSpace describes the variables of a positional-notation cube:
// every variable has a number of "parts" (values).  A binary variable has
// two parts (part 0 = literal value 0, part 1 = literal value 1).  A
// symbolic variable over n symbols has n parts (one-hot positional
// notation).  A multi-output function is modelled, as in ESPRESSO-II, by a
// final multi-valued "output variable" with one part per output.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace picola {

/// The bits of one variable inside one 64-bit word of a cube: the word
/// index and the mask of the variable's parts in it.  A variable straddling
/// a word boundary has two (or more) of these.
struct VarWord {
  int word;
  uint64_t mask;
};

/// Immutable description of the variables (and their part counts) over
/// which cubes and covers are defined.
///
/// The layout — offsets, per-variable word masks, full-cube words and the
/// part-to-variable map — is computed once at construction and held in
/// shared immutable storage, so copying a space (every Cover carries one)
/// copies a pointer, not vectors.
class CubeSpace {
 public:
  /// The space of zero variables.
  CubeSpace();

  /// Space of `nvars` binary variables (two parts each).
  static CubeSpace binary(int nvars);

  /// General multi-valued space; `part_counts[v]` is the number of parts of
  /// variable `v`.  Every count must be >= 1.
  static CubeSpace multi_valued(std::vector<int> part_counts);

  /// Convenience: `n_binary` binary input variables, optionally followed by
  /// one multi-valued input variable with `mv_parts` parts (skipped when
  /// `mv_parts == 0`), optionally followed by an output variable with
  /// `out_parts` parts (skipped when `out_parts == 0`).  This is the layout
  /// used by symbolic FSM covers.  The index of the MV/output variable can
  /// be recovered with mv_var()/output_var().
  static CubeSpace fsm_layout(int n_binary, int mv_parts, int out_parts);

  int num_vars() const { return static_cast<int>(d_->parts.size()); }
  int parts(int var) const { return d_->parts[static_cast<size_t>(var)]; }
  int offset(int var) const { return d_->offsets[static_cast<size_t>(var)]; }
  int total_parts() const { return d_->total_parts; }
  /// Number of 64-bit words needed to store one cube.
  int num_words() const { return static_cast<int>(d_->full.size()); }

  /// True when variable `var` has exactly two parts.
  bool is_binary(int var) const { return parts(var) == 2; }

  /// The (word, mask) pieces of variable `var`, in ascending word order.
  std::span<const VarWord> var_words(int var) const {
    const auto v = static_cast<size_t>(var);
    const auto b = static_cast<size_t>(d_->var_begin[v]);
    const auto e = static_cast<size_t>(d_->var_begin[v + 1]);
    return std::span<const VarWord>(d_->var_words).subspan(b, e - b);
  }
  /// Words of the universe cube (every part of every variable set).
  std::span<const uint64_t> full_words() const { return d_->full; }
  /// Low-bit mask of the binary variables lying wholly inside word `w`:
  /// such a variable's literal in word x is empty iff its bit in
  /// ~(x | x >> 1) & binary_lo(w) is set.
  uint64_t binary_lo(int w) const {
    return d_->binary_lo[static_cast<size_t>(w)];
  }
  /// The variables not covered by binary_lo(): multi-valued variables and
  /// binary variables straddling a word boundary.
  std::span<const int> other_vars() const { return d_->other_vars; }
  /// Variable owning part bit `bit` (0 <= bit < total_parts()).
  int var_of_part(int bit) const {
    return d_->part_var[static_cast<size_t>(bit)];
  }

  /// Index of the multi-valued symbolic variable in an fsm_layout() space,
  /// or -1 when the space was not built with one.
  int mv_var() const { return mv_var_; }
  /// Index of the output variable in an fsm_layout() space, or -1.
  int output_var() const { return output_var_; }

  bool operator==(const CubeSpace& o) const {
    return (d_ == o.d_ || d_->parts == o.d_->parts) && mv_var_ == o.mv_var_ &&
           output_var_ == o.output_var_;
  }
  bool operator!=(const CubeSpace& o) const { return !(*this == o); }

  /// Total number of minterms in the space (product of part counts).
  /// Saturates at ~2^62 to avoid overflow on very large spaces.
  uint64_t num_minterms() const;

  /// Human-readable summary, e.g. "[2,2,2 | mv:5 | out:3]".
  std::string to_string() const;

 private:
  explicit CubeSpace(std::vector<int> parts);

  struct Layout {
    std::vector<int> parts;
    std::vector<int> offsets;
    int total_parts = 0;
    std::vector<int> var_begin;  ///< var_words of var v: [begin[v], begin[v+1])
    std::vector<VarWord> var_words;
    std::vector<uint64_t> full;
    std::vector<int> part_var;
    std::vector<uint64_t> binary_lo;
    std::vector<int> other_vars;
  };

  std::shared_ptr<const Layout> d_;
  int mv_var_ = -1;
  int output_var_ = -1;
};

}  // namespace picola
