// Tuple: an ordered sequence of Values (Tuples1 in Addendum A).
//
// Tuples of arity 0 exist and matter: {<>} and {} encode true and false in
// Rel (Section 4.3).

#ifndef REL_DATA_TUPLE_H_
#define REL_DATA_TUPLE_H_

#include <initializer_list>
#include <string>
#include <vector>

#include "data/value.h"

namespace rel {

/// Seed for row/tuple content hashing. Shared by Tuple::Hash, TupleRef::Hash
/// and the columnar arena's per-row hashes so that all three agree on equal
/// content.
inline constexpr size_t kTupleHashSeed = 0xa1b2c3d4;

/// Content hash of the row vals[0..n): equals Tuple::Hash of a tuple with
/// those values, and the arena's cached row hash. Callers that probe and
/// insert the same row compute it once and pass it to the *Hashed calls of
/// ColumnArena and Relation.
size_t HashRow(const Value* vals, size_t n);

class Tuple;

/// A non-owning view of one row of column-major relation storage.
///
/// `cols` points at a contiguous array of `arity` column vectors; position i
/// of the row is cols[i][row]. The view stays valid while rows are appended
/// to the owning arena (element buffers may reallocate, but access goes
/// through the column vector objects, whose addresses are fixed), and is
/// invalidated by Erase or by destruction/copy of the owning relation. See
/// src/data/README.md for the full invariants.
class TupleRef {
 public:
  TupleRef() = default;
  TupleRef(const std::vector<Value>* cols, size_t arity, size_t row)
      : cols_(cols),
        arity_(static_cast<uint32_t>(arity)),
        row_(static_cast<uint32_t>(row)) {}

  size_t arity() const { return arity_; }
  bool empty() const { return arity_ == 0; }
  /// The row index within the owning arena.
  size_t row() const { return row_; }

  const Value& operator[](size_t i) const { return cols_[i][row_]; }

  /// Materializes an owning Tuple with this row's values.
  Tuple ToTuple() const;
  /// Owning tuple made of positions [begin, end).
  Tuple Slice(size_t begin, size_t end) const;

  bool StartsWith(const Tuple& prefix) const;

  /// Equals Tuple::Hash() of the materialized row.
  size_t Hash() const;

  bool operator==(const Tuple& other) const;
  bool operator!=(const Tuple& other) const { return !(*this == other); }

  std::string ToString() const;

 private:
  const std::vector<Value>* cols_ = nullptr;
  uint32_t arity_ = 0;
  uint32_t row_ = 0;
};

/// A first-order tuple. Thin wrapper over std::vector<Value> with ordering,
/// hashing, slicing and printing.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t arity() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Value& operator[](size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  void Append(const Value& v) { values_.push_back(v); }
  void AppendAll(const Tuple& t);

  /// Tuple made of positions [begin, end).
  Tuple Slice(size_t begin, size_t end) const;

  /// Concatenation `this · other`.
  Tuple Concat(const Tuple& other) const;

  /// True if this tuple's first `prefix.arity()` positions equal `prefix`.
  bool StartsWith(const Tuple& prefix) const;

  /// Lexicographic order; shorter tuples order before their extensions.
  int Compare(const Tuple& other) const;

  bool operator==(const Tuple& other) const { return Compare(other) == 0; }
  bool operator!=(const Tuple& other) const { return Compare(other) != 0; }
  bool operator<(const Tuple& other) const { return Compare(other) < 0; }

  size_t Hash() const;

  /// Rel-ish syntax: (1, "a", 2.5); the empty tuple prints as ().
  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace rel

template <>
struct std::hash<rel::Tuple> {
  size_t operator()(const rel::Tuple& t) const { return t.Hash(); }
};

#endif  // REL_DATA_TUPLE_H_
