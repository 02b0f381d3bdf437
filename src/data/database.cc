#include "data/database.h"

namespace rel {

bool DatabaseDelta::empty() const {
  if (wholesale) return false;
  for (const auto& [name, change] : changes) {
    (void)name;
    if (!change.inserted.empty() || !change.deleted.empty()) return false;
  }
  return true;
}

void DatabaseDelta::RecordInsert(const std::string& name, const Tuple& t) {
  Change& change = changes[name];
  // A delete recorded earlier in the same span cancels against this insert:
  // the tuple is present at both endpoints, so the net delta drops it.
  if (change.deleted.Contains(t)) {
    change.deleted.Erase(t);
    return;
  }
  change.inserted.Insert(t);
}

void DatabaseDelta::RecordDelete(const std::string& name, const Tuple& t) {
  Change& change = changes[name];
  if (change.inserted.Contains(t)) {
    change.inserted.Erase(t);
    return;
  }
  change.deleted.Insert(t);
}

Database::Database(const Database& other)
    : relations_(other.relations_), version_(other.version_) {
  // Both sides now share every relation: the next mutation on either side
  // must clone. The source's flags are mutable precisely for this line;
  // copying is therefore not thread-safe w.r.t. the source (header
  // contract) — in the engine only the single writer copies.
  for (auto& [name, slot] : relations_) {
    (void)name;
    slot.owned = false;
  }
  for (const auto& [name, slot] : other.relations_) {
    (void)name;
    slot.owned = false;
  }
}

Database& Database::operator=(const Database& other) {
  if (this == &other) return *this;
  relations_ = other.relations_;
  version_ = other.version_;
  for (auto& [name, slot] : relations_) {
    (void)name;
    slot.owned = false;
  }
  for (const auto& [name, slot] : other.relations_) {
    (void)name;
    slot.owned = false;
  }
  return *this;
}

Relation& Database::Mutable(Slot& slot) {
  if (!slot.owned) {
    slot.rel = std::make_shared<Relation>(*slot.rel);
    slot.owned = true;
  }
  return *slot.rel;
}

bool Database::Has(const std::string& name) const {
  return relations_.count(name) > 0;
}

const Relation& Database::Get(const std::string& name) const {
  static const Relation* empty = new Relation();
  auto it = relations_.find(name);
  if (it == relations_.end()) return *empty;
  return *it->second.rel;
}

bool Database::Insert(const std::string& name, Tuple t) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    it = relations_.emplace(name, Slot{std::make_shared<Relation>(), true})
             .first;
  } else if (it->second.rel->Contains(t)) {
    return false;  // no-op inserts must not clone a shared relation
  }
  if (!Mutable(it->second).Insert(std::move(t))) return false;
  ++version_;
  return true;
}

bool Database::Delete(const std::string& name, const Tuple& t) {
  auto it = relations_.find(name);
  if (it == relations_.end()) return false;
  if (!it->second.rel->Contains(t)) return false;
  Mutable(it->second).Erase(t);
  ++version_;
  if (it->second.rel->empty()) relations_.erase(it);
  return true;
}

void Database::Put(const std::string& name, Relation r) {
  relations_[name] = Slot{std::make_shared<Relation>(std::move(r)), true};
  ++version_;
}

void Database::Drop(const std::string& name) {
  if (relations_.erase(name) > 0) ++version_;
}

std::vector<std::string> Database::Names() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, slot] : relations_) {
    (void)slot;
    names.push_back(name);
  }
  return names;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, slot] : relations_) {
    (void)name;
    total += slot.rel->size();
  }
  return total;
}

void Database::FreezeViews() const {
  for (const auto& [name, slot] : relations_) {
    (void)name;
    for (size_t arity : slot.rel->Arities()) {
      slot.rel->ArenaOfArity(arity)->SortedRows();
    }
  }
}

}  // namespace rel
