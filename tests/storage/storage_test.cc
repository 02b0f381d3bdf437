// Unit tests for the durability layer: CRC32, the byte codecs of
// src/data/serialize.h (Value / Tuple / ColumnArena-backed Relation /
// Database round-trips), the WAL record format and its truncating reader,
// snapshot encode/decode with corruption detection, and the Store / Engine
// integration over the in-memory file system. The randomized crash sweep
// lives in crash_recovery_test.cc; this file pins the formats and the
// structured-error (no-throw-to-exit) degradation paths.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "base/crc32.h"
#include "base/error.h"
#include "core/engine.h"
#include "data/serialize.h"
#include "storage/file.h"
#include "storage/snapshot.h"
#include "storage/store.h"
#include "storage/wal.h"

namespace rel {
namespace {

using storage::DurabilityOptions;
using storage::FaultPlan;
using storage::MemFileSystem;
using storage::RecoveryReport;
using storage::SnapshotData;
using storage::WalReadResult;
using storage::WalRecord;
using storage::WalRecordType;

Value I(int64_t v) { return Value::Int(v); }
Value F(double v) { return Value::Float(v); }
Value S(const char* s) { return Value::String(s); }
Value E(const char* c, const char* id) { return Value::Entity(c, id); }

// --- CRC32 -------------------------------------------------------------------

TEST(Crc32, KnownAnswer) {
  // The standard CRC-32/IEEE check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::string data = "write-ahead log record payload";
  uint32_t whole = Crc32(data);
  uint32_t split = Crc32(data.substr(10), Crc32(data.substr(0, 10)));
  EXPECT_EQ(whole, split);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

// --- value / tuple codecs ----------------------------------------------------

Value RoundTripValue(const Value& v, bool with_table) {
  std::string buf;
  ByteWriter w(&buf);
  StringTable table;
  EncodeValue(&w, v, with_table ? &table : nullptr);

  std::vector<std::string> loaded;
  for (std::string_view s : table.strings()) loaded.emplace_back(s);
  ByteReader r(buf);
  Value out;
  EXPECT_TRUE(DecodeValue(&r, with_table ? &loaded : nullptr, &out));
  EXPECT_TRUE(r.done());
  return out;
}

TEST(Serialize, ValueRoundTripsAllKinds) {
  for (bool table : {false, true}) {
    for (const Value& v :
         {I(0), I(-1), I(std::numeric_limits<int64_t>::min()),
          I(std::numeric_limits<int64_t>::max()), F(0.0), F(-2.5),
          F(std::numeric_limits<double>::infinity()), S(""), S("hello"),
          S("with \"quotes\" and \n newlines"), E("person", "p-1"),
          E("", "")}) {
      Value out = RoundTripValue(v, table);
      EXPECT_EQ(v.Compare(out), 0) << v.ToString();
      EXPECT_EQ(v.ToString(), out.ToString());
    }
  }
}

TEST(Serialize, NanRoundTripsBitExactly) {
  // NaN is the source of kUnordered comparisons; it must survive by bit
  // pattern even though NaN != NaN.
  double nan = std::nan("0x7ff");
  Value out = RoundTripValue(F(nan), /*with_table=*/false);
  ASSERT_TRUE(out.is_float());
  EXPECT_TRUE(std::isnan(out.AsFloat()));
  uint64_t before, after;
  std::memcpy(&before, &nan, 8);
  double restored = out.AsFloat();
  std::memcpy(&after, &restored, 8);
  EXPECT_EQ(before, after);
  EXPECT_EQ(F(nan).NumericCompare(out), Value::Ordering::kUnordered);
}

TEST(Serialize, NegativeZeroKeepsItsSign) {
  Value out = RoundTripValue(F(-0.0), /*with_table=*/false);
  EXPECT_TRUE(std::signbit(out.AsFloat()));
}

TEST(Serialize, TupleRoundTripsIncludingEmpty) {
  for (const Tuple& t : {Tuple{}, Tuple({I(1)}), Tuple({I(1), S("x"), F(2.5)}),
                         Tuple({E("c", "id"), I(-7)})}) {
    std::string buf;
    ByteWriter w(&buf);
    EncodeTuple(&w, t, nullptr);
    ByteReader r(buf);
    Tuple out;
    ASSERT_TRUE(DecodeTuple(&r, nullptr, &out));
    EXPECT_EQ(t, out);
  }
}

TEST(Serialize, TruncatedInputFailsCleanly) {
  std::string buf;
  ByteWriter w(&buf);
  EncodeValue(&w, S("some string"), nullptr);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    ByteReader r(std::string_view(buf).substr(0, cut));
    Value out;
    EXPECT_FALSE(DecodeValue(&r, nullptr, &out)) << "cut at " << cut;
  }
  // Unknown kind tag.
  std::string bad = buf;
  bad[0] = 0x7f;
  ByteReader r(bad);
  Value out;
  EXPECT_FALSE(DecodeValue(&r, nullptr, &out));
}

TEST(Serialize, TableReferenceOutOfRangeFails)
{
  std::string buf;
  ByteWriter w(&buf);
  StringTable table;
  EncodeValue(&w, S("only-entry"), &table);
  std::vector<std::string> empty_table;  // decoder sees no strings
  ByteReader r(buf);
  Value out;
  EXPECT_FALSE(DecodeValue(&r, &empty_table, &out));
}

// --- relation / database codecs ----------------------------------------------

Relation RoundTripRelation(const Relation& rel) {
  std::string buf;
  ByteWriter w(&buf);
  StringTable table;
  EncodeRelation(&w, rel, &table);
  std::vector<std::string> loaded;
  for (std::string_view s : table.strings()) loaded.emplace_back(s);
  ByteReader r(buf);
  Relation out;
  EXPECT_TRUE(DecodeRelation(&r, &loaded, &out));
  EXPECT_TRUE(r.done());
  return out;
}

TEST(Serialize, RelationRoundTripsMixedArity) {
  Relation rel;
  rel.Insert(Tuple({I(1), I(2)}));
  rel.Insert(Tuple({I(1)}));
  rel.Insert(Tuple({S("a"), S("b"), S("a")}));
  rel.Insert(Tuple({E("c", "x"), F(1.5)}));
  rel.Insert(Tuple{});  // the empty tuple: boolean TRUE lives in arity 0
  Relation out = RoundTripRelation(rel);
  EXPECT_EQ(rel, out);
  // Byte-identical rendering after save/load — the satellite's contract.
  EXPECT_EQ(rel.ToString(), out.ToString());
}

TEST(Serialize, EmptyRelationAndBooleans) {
  EXPECT_EQ(RoundTripRelation(Relation()).ToString(), "{}");
  EXPECT_EQ(RoundTripRelation(Relation::True()).ToString(),
            Relation::True().ToString());
  EXPECT_TRUE(RoundTripRelation(Relation::True()).AsBool());
}

TEST(Serialize, RelationWithUnorderedValues) {
  Relation rel;
  rel.Insert(Tuple({I(1), F(std::nan(""))}));
  rel.Insert(Tuple({I(2), F(1.0)}));
  Relation out = RoundTripRelation(rel);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(rel.ToString(), out.ToString());
}

TEST(Serialize, EncodingIsCanonicalAcrossInsertionOrder) {
  // Rows are written in sorted order, so equal content encodes equal bytes
  // regardless of how it was built — snapshots of equal databases match.
  Relation a, b;
  a.Insert(Tuple({I(1)}));
  a.Insert(Tuple({I(2)}));
  b.Insert(Tuple({I(2)}));
  b.Insert(Tuple({I(1)}));
  std::string ba, bb;
  ByteWriter wa(&ba), wb(&bb);
  EncodeRelation(&wa, a, nullptr);
  EncodeRelation(&wb, b, nullptr);
  EXPECT_EQ(ba, bb);
}

TEST(Serialize, DatabaseRoundTripsWithInternedStringsShared) {
  Database db;
  for (int i = 0; i < 50; ++i) {
    db.Insert("Edge", Tuple({I(i), I(i + 1), S("shared-label")}));
  }
  db.Insert("Tags", Tuple({S("shared-label"), E("concept", "shared-label")}));
  db.Insert("T", Tuple({}));

  std::string buf;
  StringTable table;
  {
    ByteWriter w(&buf);
    EncodeDatabase(&w, db, &table);
  }
  // The table deduplicates: "shared-label" (and friends) appear once.
  EXPECT_EQ(table.strings().size(), 2u);  // "shared-label", "concept"

  std::vector<std::string> loaded;
  for (std::string_view s : table.strings()) loaded.emplace_back(s);
  ByteReader r(buf);
  Database out;
  ASSERT_TRUE(DecodeDatabase(&r, &loaded, &out));
  ASSERT_TRUE(r.done());
  EXPECT_EQ(out.Names(), db.Names());
  for (const std::string& name : db.Names()) {
    EXPECT_EQ(out.Get(name).ToString(), db.Get(name).ToString()) << name;
  }
  EXPECT_EQ(out.TotalTuples(), db.TotalTuples());
}

// --- WAL format --------------------------------------------------------------

std::string EncodeLog(const std::vector<WalRecord>& records) {
  std::string out;
  for (const WalRecord& rec : records) EncodeWalRecord(rec, &out);
  return out;
}

std::vector<WalRecord> SampleTxn(uint64_t id) {
  WalRecord begin, commit;
  begin.type = WalRecordType::kBegin;
  begin.txn_id = id;
  commit.type = WalRecordType::kCommit;
  commit.txn_id = id;
  WalRecord fact = WalRecord::Fact("Edge", Tuple({I(1), S("x")}));
  fact.txn_id = id;
  WalRecord retract = WalRecord::Retract("Edge", Tuple({I(0), S("y")}));
  retract.txn_id = id;
  return {begin, fact, retract, commit};
}

TEST(Wal, CleanLogRoundTrips) {
  std::string image = EncodeLog(SampleTxn(7));
  WalReadResult result = storage::ReadWal(image);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.valid_bytes, image.size());
  ASSERT_EQ(result.records.size(), 4u);
  EXPECT_EQ(result.records[0].type, WalRecordType::kBegin);
  EXPECT_EQ(result.records[1].type, WalRecordType::kFact);
  EXPECT_EQ(result.records[1].name, "Edge");
  EXPECT_EQ(result.records[1].tuple, Tuple({I(1), S("x")}));
  EXPECT_EQ(result.records[2].type, WalRecordType::kRetract);
  EXPECT_EQ(result.records[3].type, WalRecordType::kCommit);
  for (const WalRecord& rec : result.records) EXPECT_EQ(rec.txn_id, 7u);
}

TEST(Wal, EmptyImageIsClean) {
  WalReadResult result = storage::ReadWal("");
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.valid_bytes, 0u);
}

// Byte offsets at which each record of `records` (appended in order after
// `base` bytes) starts, plus the end-of-log offset.
std::vector<size_t> RecordBoundaries(size_t base,
                                     const std::vector<WalRecord>& records) {
  std::vector<size_t> bounds = {base};
  std::string buf;
  for (const WalRecord& rec : records) {
    EncodeWalRecord(rec, &buf);
    bounds.push_back(base + buf.size());
  }
  return bounds;
}

TEST(Wal, TornTailTruncatesAtRecordBoundary) {
  std::string first = EncodeLog(SampleTxn(1));
  std::vector<WalRecord> second = SampleTxn(2);
  std::string image = first + EncodeLog(second);
  std::vector<size_t> bounds = RecordBoundaries(first.size(), second);
  // Chop the image everywhere inside the second transaction. The reader
  // must keep every fully-landed record, report a tear exactly when the
  // cut splits a frame, and never trust a byte past the last boundary.
  for (size_t cut = first.size() + 1; cut < image.size(); ++cut) {
    WalReadResult result = storage::ReadWal(image.substr(0, cut));
    size_t last_whole = 0;
    for (size_t b : bounds) {
      if (b <= cut) last_whole = b;
    }
    EXPECT_EQ(result.valid_bytes, last_whole) << cut;
    EXPECT_EQ(result.truncated, cut != last_whole) << cut;
    EXPECT_GE(result.records.size(), 4u) << cut;
    // Never a partial record: record count matches the boundary index.
    size_t whole_records = 0;
    for (size_t b : bounds) {
      if (b <= cut && b > first.size()) ++whole_records;
    }
    EXPECT_EQ(result.records.size(), 4u + whole_records) << cut;
  }
}

TEST(Wal, BitFlipStopsTheScan) {
  std::string first = EncodeLog(SampleTxn(1));
  std::vector<WalRecord> second = SampleTxn(2);
  std::string image = first + EncodeLog(second);
  std::vector<size_t> bounds = RecordBoundaries(first.size(), second);
  // Flip a bit in every byte position of the second txn in turn: the scan
  // must stop exactly at the start of the record containing the flip —
  // records before it survive, nothing after it is trusted.
  for (size_t pos = first.size(); pos < image.size(); ++pos) {
    std::string corrupt = image;
    corrupt[pos] ^= 0x10;
    WalReadResult result = storage::ReadWal(corrupt);
    size_t record_start = 0;
    for (size_t b : bounds) {
      if (b <= pos) record_start = b;
    }
    EXPECT_TRUE(result.truncated) << pos;
    EXPECT_EQ(result.valid_bytes, record_start) << pos;
    EXPECT_GE(result.records.size(), 4u) << pos;
  }
}

TEST(Wal, DefineRecordRoundTrips) {
  WalRecord def;
  def.type = WalRecordType::kDefine;
  def.txn_id = 3;
  def.source = "def d(x) : x = 1\nic c() requires d(1)";
  std::string image;
  EncodeWalRecord(def, &image);
  WalReadResult result = storage::ReadWal(image);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].source, def.source);
}

// --- snapshot format ---------------------------------------------------------

SnapshotData SampleSnapshot() {
  SnapshotData data;
  data.db.Insert("Edge", Tuple({I(1), I(2)}));
  data.db.Insert("Edge", Tuple({I(2), I(3)}));
  data.db.Insert("Name", Tuple({E("person", "p1"), S("Ada")}));
  data.model_sources = {"def reach(x, y) : Edge(x, y)",
                        "ic has_names() requires count[Name] > 0"};
  data.last_txn_id = 42;
  return data;
}

TEST(Snapshot, RoundTrips) {
  SnapshotData data = SampleSnapshot();
  std::string image;
  storage::EncodeSnapshot(data, &image);
  SnapshotData out;
  ASSERT_TRUE(storage::DecodeSnapshot(image, &out).ok());
  EXPECT_EQ(out.last_txn_id, 42u);
  EXPECT_EQ(out.model_sources, data.model_sources);
  EXPECT_EQ(out.db.Names(), data.db.Names());
  for (const std::string& name : data.db.Names()) {
    EXPECT_EQ(out.db.Get(name).ToString(), data.db.Get(name).ToString());
  }
}

TEST(Snapshot, AnySingleBitFlipIsDetected) {
  std::string image;
  storage::EncodeSnapshot(SampleSnapshot(), &image);
  for (size_t pos = 0; pos < image.size(); ++pos) {
    std::string corrupt = image;
    corrupt[pos] ^= 0x04;
    SnapshotData out;
    Status s = storage::DecodeSnapshot(corrupt, &out);
    EXPECT_FALSE(s.ok()) << "flip at " << pos;
    EXPECT_EQ(s.kind(), ErrorKind::kCorruption) << "flip at " << pos;
  }
}

TEST(Snapshot, TruncationIsDetected) {
  std::string image;
  storage::EncodeSnapshot(SampleSnapshot(), &image);
  for (size_t cut : {size_t{0}, size_t{4}, size_t{11}, image.size() - 1}) {
    SnapshotData out;
    EXPECT_FALSE(storage::DecodeSnapshot(image.substr(0, cut), &out).ok());
  }
}

// --- store + engine integration over the mem file system ---------------------

TEST(Store, FreshAttachCommitRecoverElsewhere) {
  auto fs = std::make_shared<MemFileSystem>();
  {
    Engine engine;
    RecoveryReport report = engine.AttachStorage("db", {}, fs);
    ASSERT_TRUE(report.status.ok()) << report.status.ToString();
    EXPECT_EQ(report.recovered_txns, 0u);
    engine.Define("def doubled(x) : exists((y) | Num(y) and x = y + y)");
    TxnResult txn = engine.Exec("def insert(:Num, x) : x = 1 or x = 2");
    EXPECT_GT(txn.txn_id, 0u);
    engine.Exec("def delete(:Num, x) : Num(x) and x = 1\n"
                "def insert(:Num, x) : x = 3");
    // No Checkpoint: recovery must reconstruct purely from the WAL.
  }
  Engine recovered;
  RecoveryReport report = recovered.AttachStorage("db", {}, fs);
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.replayed_txns, 2u);
  EXPECT_FALSE(report.wal_truncated);
  EXPECT_EQ(recovered.Base("Num").ToString(), "{(2); (3)}");
  // The model came back too: Define'd rules answer queries again.
  EXPECT_EQ(recovered.Query("def output : doubled").ToString(), "{(4); (6)}");
}

TEST(Store, CheckpointRotatesAndRecoversFromSnapshot) {
  auto fs = std::make_shared<MemFileSystem>();
  {
    Engine engine;
    ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
    engine.Exec("def insert(:R, x) : x = 1 or x = 2 or x = 3");
    ASSERT_TRUE(engine.Checkpoint().ok());
    engine.Exec("def insert(:R, x) : x = 4");  // lands in the new epoch's WAL
  }
  ASSERT_TRUE(fs->Exists("db/snap-1"));
  Engine recovered;
  RecoveryReport report = recovered.AttachStorage("db", {}, fs);
  ASSERT_TRUE(report.status.ok());
  EXPECT_EQ(report.snapshot_txn, 1u);
  EXPECT_EQ(report.replayed_txns, 1u);
  EXPECT_EQ(recovered.Base("R").ToString(), "{(1); (2); (3); (4)}");
}

TEST(Store, IntegrityConstraintsSurviveRecovery) {
  auto fs = std::make_shared<MemFileSystem>();
  {
    Engine engine;
    ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
    engine.Define("ic positive(x) requires Num(x) implies x > 0");
    engine.Exec("def insert(:Num, x) : x = 5");
  }
  Engine recovered;
  ASSERT_TRUE(recovered.AttachStorage("db", {}, fs).status.ok());
  recovered.CheckConstraints();  // recovered state satisfies recovered ICs
  EXPECT_THROW(recovered.Exec("def insert(:Num, x) : x = 0 - 7"),
               ConstraintViolation);
  EXPECT_EQ(recovered.Base("Num").ToString(), "{(5)}");
}

TEST(Store, TornWalTailDegradesToReportNotThrow) {
  auto fs = std::make_shared<MemFileSystem>();
  {
    Engine engine;
    ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
    engine.Exec("def insert(:R, x) : x = 1");
    engine.Exec("def insert(:R, x) : x = 2");
  }
  // Tear bytes off the WAL tail by hand.
  auto files = fs->FilesAsIs();
  std::string& wal = files["db/wal-0"];
  ASSERT_GT(wal.size(), 6u);
  wal.resize(wal.size() - 5);
  auto damaged = std::make_shared<MemFileSystem>(files);

  Engine recovered;
  RecoveryReport report = recovered.AttachStorage("db", {}, damaged);
  ASSERT_TRUE(report.status.ok()) << "corruption must degrade, not fail";
  EXPECT_TRUE(report.wal_truncated);
  EXPECT_EQ(report.replayed_txns, 1u);
  EXPECT_NE(report.detail.find("truncated"), std::string::npos);
  EXPECT_EQ(recovered.Base("R").ToString(), "{(1)}");
  // The trimmed WAL accepts new commits, and they survive the next recovery.
  recovered.Exec("def insert(:R, x) : x = 9");
  Engine again;
  ASSERT_TRUE(again.AttachStorage("db", {}, damaged).status.ok());
  EXPECT_EQ(again.Base("R").ToString(), "{(1); (9)}");
}

TEST(Store, CorruptSnapshotFallsBackOneEpoch) {
  auto fs = std::make_shared<MemFileSystem>();
  {
    Engine engine;
    ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
    engine.Exec("def insert(:R, x) : x = 1");
    ASSERT_TRUE(engine.Checkpoint().ok());
    engine.Exec("def insert(:R, x) : x = 2");
    ASSERT_TRUE(engine.Checkpoint().ok());
  }
  // Corrupt the newest snapshot after the fact; the previous epoch's
  // snapshot + WAL are still on disk (retention keeps one fallback epoch).
  auto files = fs->FilesAsIs();
  ASSERT_TRUE(files.count("db/snap-2"));
  ASSERT_TRUE(files.count("db/snap-1"));
  files["db/snap-2"][20] ^= 0x01;
  auto damaged = std::make_shared<MemFileSystem>(files);

  Engine recovered;
  RecoveryReport report = recovered.AttachStorage("db", {}, damaged);
  ASSERT_TRUE(report.status.ok());
  EXPECT_NE(report.detail.find("skipped snap-2"), std::string::npos)
      << report.detail;
  EXPECT_EQ(report.snapshot_txn, 1u);
  EXPECT_EQ(recovered.Base("R").ToString(), "{(1); (2)}")
      << "epoch-1 WAL replay must restore txn 2";
}

TEST(Store, WalAppendFailureRollsBackAndSurfacesKIo) {
  auto fs = std::make_shared<MemFileSystem>();
  Engine engine;
  ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
  engine.Exec("def insert(:R, x) : x = 1");

  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kFailWrite;
  plan.at_write = 1;  // next append dies
  fs->SetFault(plan);
  try {
    engine.Exec("def insert(:R, x) : x = 2");
    FAIL() << "expected kIo";
  } catch (const RelError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_NE(std::string(e.what()).find("rolled back"), std::string::npos);
  }
  // The in-memory state rolled back with it: durable and in-memory agree.
  EXPECT_EQ(engine.Base("R").ToString(), "{(1)}");
}

TEST(Store, FailedCheckpointKeepsPreviousEpoch) {
  auto fs = std::make_shared<MemFileSystem>();
  Engine engine;
  ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
  engine.Exec("def insert(:R, x) : x = 1");

  // Bit-flip the snapshot as it is written: read-back verification must
  // reject it and keep the old epoch serving.
  FaultPlan plan;
  plan.kind = FaultPlan::Kind::kBitFlip;
  plan.at_write = 1;
  plan.offset = 25;
  fs->SetFault(plan);
  Status s = engine.Checkpoint();
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.kind(), ErrorKind::kCorruption);
  fs->SetFault({});
  EXPECT_FALSE(fs->Exists("db/snap-1"));
  EXPECT_FALSE(fs->Exists("db/snap-tmp"));

  // Still fully functional on the old epoch, and a later checkpoint works.
  engine.Exec("def insert(:R, x) : x = 2");
  ASSERT_TRUE(engine.Checkpoint().ok());
  Engine recovered;
  ASSERT_TRUE(recovered.AttachStorage("db", {}, fs).status.ok());
  EXPECT_EQ(recovered.Base("R").ToString(), "{(1); (2)}");
}

TEST(Store, GroupCommitBuffersSyncs) {
  auto fs = std::make_shared<MemFileSystem>();
  DurabilityOptions opts;
  opts.group_commit = 3;
  Engine engine;
  ASSERT_TRUE(engine.AttachStorage("db", opts, fs).status.ok());
  engine.Exec("def insert(:R, x) : x = 1");
  engine.Exec("def insert(:R, x) : x = 2");
  // Two commits: acknowledged, appended, but not yet synced.
  EXPECT_LT(fs->FilesSynced()["db/wal-0"].size(),
            fs->FilesAsIs()["db/wal-0"].size());
  // A crash losing the cache would keep a clean (possibly empty) prefix.
  Engine lossy;
  RecoveryReport lost =
      lossy.AttachStorage("db", {}, std::make_shared<MemFileSystem>(
                                        fs->FilesSynced()));
  ASSERT_TRUE(lost.status.ok());
  EXPECT_EQ(lost.replayed_txns, 0u);
  // The third commit crosses the group boundary and syncs all three.
  engine.Exec("def insert(:R, x) : x = 3");
  EXPECT_EQ(fs->FilesSynced()["db/wal-0"].size(),
            fs->FilesAsIs()["db/wal-0"].size());
  // FlushWal syncs an incomplete group on demand.
  engine.Exec("def insert(:R, x) : x = 4");
  EXPECT_LT(fs->FilesSynced()["db/wal-0"].size(),
            fs->FilesAsIs()["db/wal-0"].size());
  ASSERT_TRUE(engine.FlushWal().ok());
  EXPECT_EQ(fs->FilesSynced()["db/wal-0"].size(),
            fs->FilesAsIs()["db/wal-0"].size());
}

TEST(Store, ProgrammaticBulkOpsAreLogged) {
  auto fs = std::make_shared<MemFileSystem>();
  {
    Engine engine;
    ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
    engine.Insert("Mix", {Tuple({I(1), S("a")}), Tuple({F(2.5), E("c", "x")})});
    engine.DeleteTuples("Mix", {Tuple({I(1), S("a")})});
  }
  Engine recovered;
  ASSERT_TRUE(recovered.AttachStorage("db", {}, fs).status.ok());
  EXPECT_EQ(recovered.Base("Mix").ToString(),
            Relation::Singleton(Tuple({F(2.5), E("c", "x")})).ToString());
}

TEST(Store, PreAttachDefinesAreLoggedOnAttach) {
  auto fs = std::make_shared<MemFileSystem>();
  {
    Engine engine;
    engine.Define("def two(x) : x = 2");  // before any storage exists
    ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
    engine.Exec("def insert(:R, x) : two(x)");
  }
  Engine recovered;
  ASSERT_TRUE(recovered.AttachStorage("db", {}, fs).status.ok());
  EXPECT_EQ(recovered.Base("R").ToString(), "{(2)}");
  EXPECT_EQ(recovered.Query("def output : two").ToString(), "{(2)}");
}

TEST(Store, SecondAttachIsRejected) {
  auto fs = std::make_shared<MemFileSystem>();
  Engine engine;
  ASSERT_TRUE(engine.AttachStorage("db", {}, fs).status.ok());
  RecoveryReport second = engine.AttachStorage("db2", {}, fs);
  EXPECT_FALSE(second.status.ok());
  EXPECT_EQ(second.status.kind(), ErrorKind::kTransaction);
}

TEST(Store, RecoveryReplacesDatabaseUnderBoundReads) {
  // Regression: extents of bound reads must not leak across the Database
  // replacement that recovery performs.
  auto fs = std::make_shared<MemFileSystem>();
  {
    Engine writer;
    ASSERT_TRUE(writer.AttachStorage("db", {}, fs).status.ok());
    writer.Define(
        "def tc(x, y) : edge(x, y)\n"
        "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))");
    writer.Exec("def insert(:edge, x, y) : (x = 1 and y = 2) or "
                "(x = 2 and y = 3)");
  }
  Engine reader;
  // Warm the bound-read path on unrelated pre-attach state.
  reader.Define(
      "def tc(x, y) : edge(x, y)\n"
      "def tc(x, z) : exists((y) | edge(x, y) and tc(y, z))");
  reader.Insert("edge", {Tuple({I(7), I(8)})});
  EXPECT_EQ(reader.Query("def output(y) : tc(7, y)").ToString(), "{(8)}");
  // This engine was not fresh, so attach merges model sources; the database
  // itself is REPLACED by the recovered image.
  ASSERT_TRUE(reader.AttachStorage("db", {}, fs).status.ok());
  EXPECT_EQ(reader.Query("def output(y) : tc(1, y)").ToString(),
            "{(2); (3)}");
  EXPECT_EQ(reader.Query("def output(y) : tc(7, y)").size(), 0u)
      << "stale pre-recovery extent leaked through a cached extent";
}

}  // namespace
}  // namespace rel
