// Value: the atomic data item of the Rel data model.
//
// Following the paper's "things, not strings" discussion (Section 2), values
// are either primitive (Int, Float, String) or Entity: an internal identifier
// that is unique across the whole database. Entities carry the concept they
// belong to so the GNF layer can enforce the unique-identifier property.
//
// Values are small (24 bytes), trivially copyable, totally ordered and
// hashable, which is what the relation storage layer is built on.

#ifndef REL_DATA_VALUE_H_
#define REL_DATA_VALUE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "base/interner.h"

namespace rel {

/// Discriminates Value. The order of enumerators defines the cross-kind
/// ordering used by relation storage (Int < Float < String < Entity).
enum class ValueKind : uint8_t {
  kInt,
  kFloat,
  kString,
  kEntity,
};

/// Returns "Int", "Float", "String" or "Entity".
const char* ValueKindName(ValueKind kind);

/// An immutable atomic value.
class Value {
 public:
  /// Default-constructs Int 0 (required by containers; not otherwise used).
  Value() : kind_(ValueKind::kInt), int_(0) {}

  static Value Int(int64_t v);
  static Value Float(double v);
  /// The result of float arithmetic: Float(v), or no value when v is NaN.
  /// Like x / 0, an operation whose result is not a number is undefined and
  /// yields no tuple — a NaN Value would be unequal to itself, breaking set
  /// semantics and the storage order. Every arithmetic kernel of both
  /// engines returns its float results through here.
  static std::optional<Value> FloatResult(double v);
  static Value String(std::string_view s);
  /// An entity identifier `id` belonging to `concept` (both interned).
  static Value Entity(std::string_view concept_name, std::string_view id);

  ValueKind kind() const { return kind_; }
  bool is_int() const { return kind_ == ValueKind::kInt; }
  bool is_float() const { return kind_ == ValueKind::kFloat; }
  bool is_string() const { return kind_ == ValueKind::kString; }
  bool is_entity() const { return kind_ == ValueKind::kEntity; }
  bool is_number() const { return is_int() || is_float(); }

  /// Requires is_int().
  int64_t AsInt() const;
  /// Requires is_float().
  double AsFloat() const;
  /// Numeric value as double. Requires is_number().
  double AsDouble() const;
  /// Requires is_string().
  const std::string& AsString() const;
  /// Requires is_entity(); the local identifier part.
  const std::string& EntityId() const;
  /// Requires is_entity(); the concept the entity belongs to.
  const std::string& EntityConcept() const;

  /// Strict total order: by kind, then by content. This is the storage
  /// order; it intentionally does NOT equate Int 1 with Float 1.0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Numeric-aware comparison used by the `=`, `<`, ... builtins: Int 1 and
  /// Float 1.0 compare equal; values of incomparable kinds return kUnordered.
  enum class Ordering { kLess, kEqual, kGreater, kUnordered };
  Ordering NumericCompare(const Value& other) const;

  size_t Hash() const;

  /// Rel literal syntax: 42, 3.5, "text", concept:"id" for entities.
  std::string ToString() const;

 private:
  ValueKind kind_;
  union {
    int64_t int_;
    double float_;
    Symbol sym_;  // kString: the string; kEntity: unused with pair_ below
  };
  // For entities: interned concept and id. For other kinds unused.
  Symbol concept_ = 0;
};

}  // namespace rel

template <>
struct std::hash<rel::Value> {
  size_t operator()(const rel::Value& v) const { return v.Hash(); }
};

#endif  // REL_DATA_VALUE_H_
