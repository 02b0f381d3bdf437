#include "data/value.h"

#include <charconv>
#include <cmath>

#include "base/error.h"
#include "base/hash.h"

namespace rel {

const char* ValueKindName(ValueKind kind) {
  switch (kind) {
    case ValueKind::kInt:
      return "Int";
    case ValueKind::kFloat:
      return "Float";
    case ValueKind::kString:
      return "String";
    case ValueKind::kEntity:
      return "Entity";
  }
  return "?";
}

Value Value::Int(int64_t v) {
  Value value;
  value.kind_ = ValueKind::kInt;
  value.int_ = v;
  return value;
}

Value Value::Float(double v) {
  Value value;
  value.kind_ = ValueKind::kFloat;
  value.float_ = v;
  return value;
}

std::optional<Value> Value::FloatResult(double v) {
  if (std::isnan(v)) return std::nullopt;
  return Float(v);
}

Value Value::String(std::string_view s) {
  Value value;
  value.kind_ = ValueKind::kString;
  value.sym_ = Interner::Global().Intern(s);
  return value;
}

Value Value::Entity(std::string_view concept_name, std::string_view id) {
  Value value;
  value.kind_ = ValueKind::kEntity;
  value.sym_ = Interner::Global().Intern(id);
  value.concept_ = Interner::Global().Intern(concept_name);
  return value;
}

int64_t Value::AsInt() const {
  InternalCheck(is_int(), "Value::AsInt on non-int");
  return int_;
}

double Value::AsFloat() const {
  InternalCheck(is_float(), "Value::AsFloat on non-float");
  return float_;
}

double Value::AsDouble() const {
  InternalCheck(is_number(), "Value::AsDouble on non-number");
  return is_int() ? static_cast<double>(int_) : float_;
}

const std::string& Value::AsString() const {
  InternalCheck(is_string(), "Value::AsString on non-string");
  return Interner::Global().Lookup(sym_);
}

const std::string& Value::EntityId() const {
  InternalCheck(is_entity(), "Value::EntityId on non-entity");
  return Interner::Global().Lookup(sym_);
}

const std::string& Value::EntityConcept() const {
  InternalCheck(is_entity(), "Value::EntityConcept on non-entity");
  return Interner::Global().Lookup(concept_);
}

int Value::Compare(const Value& other) const {
  if (kind_ != other.kind_) {
    return kind_ < other.kind_ ? -1 : 1;
  }
  switch (kind_) {
    case ValueKind::kInt:
      if (int_ != other.int_) return int_ < other.int_ ? -1 : 1;
      return 0;
    case ValueKind::kFloat:
      if (float_ != other.float_) return float_ < other.float_ ? -1 : 1;
      return 0;
    case ValueKind::kString:
      return Interner::Global().Compare(sym_, other.sym_);
    case ValueKind::kEntity: {
      int c = Interner::Global().Compare(concept_, other.concept_);
      if (c != 0) return c;
      return Interner::Global().Compare(sym_, other.sym_);
    }
  }
  return 0;
}

Value::Ordering Value::NumericCompare(const Value& other) const {
  if (is_number() && other.is_number()) {
    if (is_int() && other.is_int()) {
      if (int_ < other.int_) return Ordering::kLess;
      if (int_ > other.int_) return Ordering::kGreater;
      return Ordering::kEqual;
    }
    double a = AsDouble();
    double b = other.AsDouble();
    if (std::isnan(a) || std::isnan(b)) return Ordering::kUnordered;
    if (a < b) return Ordering::kLess;
    if (a > b) return Ordering::kGreater;
    return Ordering::kEqual;
  }
  if (kind_ != other.kind_) return Ordering::kUnordered;
  int c = Compare(other);
  if (c < 0) return Ordering::kLess;
  if (c > 0) return Ordering::kGreater;
  return Ordering::kEqual;
}

size_t Value::Hash() const {
  size_t seed = static_cast<size_t>(kind_);
  switch (kind_) {
    case ValueKind::kInt:
      seed = HashCombine(seed, HashOf<int64_t>(int_));
      break;
    case ValueKind::kFloat:
      seed = HashCombine(seed, HashOf<double>(float_));
      break;
    case ValueKind::kString:
      seed = HashCombine(seed, HashOf<uint32_t>(sym_));
      break;
    case ValueKind::kEntity:
      seed = HashCombine(seed, HashOf<uint32_t>(sym_));
      seed = HashCombine(seed, HashOf<uint32_t>(concept_));
      break;
  }
  return seed;
}

std::string Value::ToString() const {
  switch (kind_) {
    case ValueKind::kInt:
      return std::to_string(int_);
    case ValueKind::kFloat: {
      // The shortest text that reads back as the same double (1e-07,
      // 0.1234567, 1e+300); round numbers keep a ".0" so that they still
      // read as floats (1.0).
      char buf[32];
      std::string s(buf, std::to_chars(buf, buf + sizeof(buf), float_).ptr);
      if (std::isfinite(float_) && s.find_first_of(".e") == std::string::npos) {
        s += ".0";
      }
      return s;
    }
    case ValueKind::kString:
      return "\"" + AsString() + "\"";
    case ValueKind::kEntity:
      return EntityConcept() + ":\"" + EntityId() + "\"";
  }
  return "?";
}

}  // namespace rel
