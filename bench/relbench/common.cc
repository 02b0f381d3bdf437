#include "common.h"

#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace relbench {

namespace {

uint64_t SplitMix64(uint64_t* x) {
  uint64_t z = (*x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix64(&seed);
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::Below(uint64_t n) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >>
                               64);
}

int64_t Rng::Between(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo) + 1));
}

double Rng::Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

Zipf::Zipf(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Sample(Rng& rng) const {
  size_t r = std::upper_bound(cdf_.begin(), cdf_.end(), rng.Unit()) -
             cdf_.begin();
  return std::min(r, cdf_.size() - 1);
}

Mix::Mix(const std::vector<int>& weights) {
  for (size_t t = 0; t < weights.size(); ++t) {
    block_.insert(block_.end(), weights[t], static_cast<int>(t));
  }
  pos_ = block_.size();
}

int Mix::Next(Rng& rng) {
  if (pos_ == block_.size()) {
    for (size_t i = block_.size() - 1; i > 0; --i) {
      std::swap(block_[i], block_[rng.Below(i + 1)]);
    }
    pos_ = 0;
  }
  return block_[pos_++];
}

double ReferenceKernelMs() {
  // Keeps the work observable; several client threads calibrate at once.
  static std::atomic<uint64_t> sink{0};
  Clock::time_point t0 = Clock::now();
  Rng rng(42);
  // Hashing and sorting flat values...
  std::unordered_map<uint64_t, uint64_t> table;
  std::vector<uint64_t> values;
  for (int i = 0; i < 8192; ++i) {
    const uint64_t x = rng.Next();
    table[x % 4096] += x;
    values.push_back(x);
  }
  std::sort(values.begin(), values.end());
  uint64_t sum = values[values.size() / 2];
  for (const auto& [k, v] : table) sum += k ^ v;
  // ...and building, sorting and comparing many small heap-allocated rows,
  // the shape of the interpreter's work.
  std::unordered_map<uint64_t, std::vector<int64_t>> groups;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t x = rng.Next();
    groups[x % 1024].push_back(static_cast<int64_t>(x >> 3));
  }
  std::vector<std::vector<int64_t>> rows;
  for (auto& [k, row] : groups) {
    std::sort(row.begin(), row.end());
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end());
  for (const auto& row : rows) sum += row.size() ^ static_cast<uint64_t>(row[0]);
  sink.fetch_add(sum, std::memory_order_relaxed);
  return MsBetween(t0, Clock::now());
}

double SpeedFactor(const std::vector<ReferenceSample>& reference,
                   Clock::time_point at) {
  if (reference.empty()) return 1;
  const size_t pos =
      std::lower_bound(reference.begin(), reference.end(), at,
                       [](const ReferenceSample& s, Clock::time_point t) {
                         return s.at < t;
                       }) -
      reference.begin();
  const size_t take = std::min<size_t>(4, reference.size());
  const size_t first = std::min(pos >= 2 ? pos - 2 : 0, reference.size() - take);
  std::vector<double> near;
  for (size_t i = first; i < first + take; ++i) near.push_back(reference[i].ms);
  return kReferenceMs / Percentile(near, 0.5);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = p * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void ResetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

std::string FilesystemType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

uint64_t Tracer::Add(const std::string& name, const std::string& cat,
                     uint64_t op, const std::string& tmpl, uint64_t parent,
                     Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  auto tid = tids_.try_emplace(std::this_thread::get_id(),
                               static_cast<int>(tids_.size()) + 1);
  Span span;
  span.id = spans_.size() + 1;
  span.op = op;
  span.parent = parent;
  span.name = name;
  span.cat = cat;
  span.tmpl = tmpl;
  span.ts_us = MsBetween(origin_, start) * 1e3;
  span.dur_us = MsBetween(start, end) * 1e3;
  span.tid = tid.first->second;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": " << JsonString(s.name) << ", \"cat\": "
        << JsonString(s.cat) << ", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.tid << ", \"ts\": " << JsonNumber(s.ts_us)
        << ", \"dur\": " << JsonNumber(s.dur_us) << ", \"args\": {\"id\": "
        << s.id << ", \"op\": " << s.op << ", \"template\": "
        << JsonString(s.tmpl) << ", \"parent\": " << s.parent << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

uint64_t RunContext::BeginOp(const std::string& tmpl) {
  std::lock_guard<std::mutex> lock(mu);
  ++ops_by_template[tmpl];
  return ++attempted;
}

void RunContext::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu);
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

void RunContext::AddLatency(const std::string& cls, const std::string& tmpl,
                            double ms) {
  const Clock::time_point at = Clock::now();
  std::lock_guard<std::mutex> lock(mu);
  auto index = [&](const std::string& name) {
    auto it = std::find(names.begin(), names.end(), name);
    if (it == names.end()) it = names.insert(names.end(), name);
    return static_cast<uint16_t>(it - names.begin());
  };
  latencies.push_back({index(cls), index(tmpl), ms, at});
}

void RunContext::AddOp(OpRecord op) {
  std::lock_guard<std::mutex> lock(mu);
  ops.push_back(std::move(op));
}

double RunContext::Calibrate() {
  Clock::time_point t0 = Clock::now();
  ReferenceSample sample{ReferenceKernelMs(), Clock::now()};
  {
    std::lock_guard<std::mutex> lock(mu);
    reference.push_back(sample);
  }
  return MsBetween(t0, Clock::now());
}

}  // namespace relbench
