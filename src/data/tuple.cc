#include "data/tuple.h"

#include "base/error.h"
#include "base/hash.h"

namespace rel {

size_t HashRow(const Value* vals, size_t n) {
  size_t seed = kTupleHashSeed;
  for (size_t i = 0; i < n; ++i) seed = HashCombine(seed, vals[i].Hash());
  return seed;
}

Tuple TupleRef::ToTuple() const { return Slice(0, arity_); }

Tuple TupleRef::Slice(size_t begin, size_t end) const {
  InternalCheck(begin <= end && end <= arity_, "bad tuple-ref slice");
  std::vector<Value> values;
  values.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) values.push_back((*this)[i]);
  return Tuple(std::move(values));
}

bool TupleRef::StartsWith(const Tuple& prefix) const {
  if (prefix.arity() > arity_) return false;
  for (size_t i = 0; i < prefix.arity(); ++i) {
    if ((*this)[i] != prefix[i]) return false;
  }
  return true;
}

size_t TupleRef::Hash() const {
  size_t seed = kTupleHashSeed;
  for (size_t i = 0; i < arity_; ++i) {
    seed = HashCombine(seed, (*this)[i].Hash());
  }
  return seed;
}

bool TupleRef::operator==(const Tuple& other) const {
  if (arity_ != other.arity()) return false;
  for (size_t i = 0; i < arity_; ++i) {
    if ((*this)[i] != other[i]) return false;
  }
  return true;
}

std::string TupleRef::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < arity_; ++i) {
    if (i > 0) out += ", ";
    out += (*this)[i].ToString();
  }
  out += ")";
  return out;
}

void Tuple::AppendAll(const Tuple& t) {
  values_.insert(values_.end(), t.values_.begin(), t.values_.end());
}

Tuple Tuple::Slice(size_t begin, size_t end) const {
  InternalCheck(begin <= end && end <= values_.size(), "bad tuple slice");
  return Tuple(std::vector<Value>(values_.begin() + begin, values_.begin() + end));
}

Tuple Tuple::Concat(const Tuple& other) const {
  Tuple result = *this;
  result.AppendAll(other);
  return result;
}

bool Tuple::StartsWith(const Tuple& prefix) const {
  if (prefix.arity() > arity()) return false;
  for (size_t i = 0; i < prefix.arity(); ++i) {
    if (values_[i] != prefix[i]) return false;
  }
  return true;
}

int Tuple::Compare(const Tuple& other) const {
  size_t n = std::min(arity(), other.arity());
  for (size_t i = 0; i < n; ++i) {
    int c = values_[i].Compare(other[i]);
    if (c != 0) return c;
  }
  if (arity() != other.arity()) return arity() < other.arity() ? -1 : 1;
  return 0;
}

size_t Tuple::Hash() const { return HashRow(values_.data(), values_.size()); }

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace rel
