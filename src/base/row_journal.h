// EraseJournal: the bounded history that lets structures derived from a
// dense row store repair themselves from the store's changes instead of
// rebuilding from scratch.
//
// The store (ColumnArena, src/data/relation.h) numbers its rows 0..size-1
// and changes them in exactly two ways, each advancing its version by one:
//
//   * append: the new row takes index size();
//   * swap-last erase: the last row moves into the erased row's index (the
//     slot it fills) and the store shrinks by one. Erasing the last row
//     itself fills nothing; its index is recorded all the same.
//
// Only erases are journaled, as (version after the erase, slot). Every
// version tick without an entry is therefore an append, which keeps an
// insert-only store's journal empty. A derived structure remembers the
// (version, size) it was built at; ChangesSince turns that into the net
// change up to now — which old rows are gone, which survivors were
// renumbered, which indexes hold rows added since — in time proportional to
// the change, not to the store.
//
// The journal is capped (max(64, rows / 8) entries). Past the cap the
// oldest half is dropped, and a structure older than the dropped history
// must rebuild.

#ifndef REL_BASE_ROW_JOURNAL_H_
#define REL_BASE_ROW_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace rel {

/// The net effect of a store's appends and swap-last erases between two
/// versions, in the old and new row numberings. The lists are in no
/// particular order.
struct RowChanges {
  /// Old rows no longer present.
  std::vector<uint32_t> erased;
  /// Surviving old rows now at another index: (old, new).
  std::vector<std::pair<uint32_t, uint32_t>> moved;
  /// New-numbering indexes holding rows added since.
  std::vector<uint32_t> added;
  size_t old_size = 0;
  size_t new_size = 0;
};

class EraseJournal {
 public:
  /// Records that the erase which took the store to `version` filled
  /// `slot`; `rows` is the store's size after it (it sizes the cap).
  void RecordErase(uint64_t version, uint32_t slot, size_t rows);

  /// Forgets all history: a structure built before `version` must rebuild.
  /// For wholesale content changes (copy-assignment).
  void Reset(uint64_t version);

  /// The net change from a structure's (from_version, from_size) to the
  /// store's (to_version, to_size). False when the journal no longer
  /// reaches back to from_version (or the sizes do not add up), in which
  /// case the caller rebuilds.
  bool ChangesSince(uint64_t from_version, size_t from_size,
                    uint64_t to_version, size_t to_size,
                    RowChanges* out) const;

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t version;
    uint32_t slot;
  };
  std::vector<Entry> entries_;  // ascending by version
  uint64_t floor_ = 0;          // erases at or before floor_ are forgotten
};

}  // namespace rel

#endif  // REL_BASE_ROW_JOURNAL_H_
