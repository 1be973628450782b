// Input generation, the percentile rule, spans, getrusage and self-tests.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>

#include "perfbench/harness.h"

namespace libra::perfbench {

// --- Rng ---------------------------------------------------------------------

uint64_t Rng::Derive(uint64_t seed, uint64_t stream) {
  Rng r(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  r.Next();
  return r.Next();
}

uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

uint64_t Rng::Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }

double Rng::Exponential(double mean) { return -mean * std::log1p(-Uniform()); }

uint64_t Rng::LogNormal(double mean, double sigma, uint64_t lo, uint64_t hi) {
  double v = mean;
  if (sigma > 0.0) {
    const double var = std::log1p((sigma * sigma) / (mean * mean));
    const double mu = std::log(mean) - var / 2.0;
    // Box-Muller; 1 - Uniform() keeps the log argument positive.
    const double z = std::sqrt(-2.0 * std::log(1.0 - Uniform())) *
                     std::cos(2.0 * M_PI * Uniform());
    v = std::exp(mu + std::sqrt(var) * z);
  }
  return std::clamp(static_cast<uint64_t>(std::llround(v)), lo, hi);
}

// --- Zipf --------------------------------------------------------------------

Zipf::Zipf(uint64_t n, double theta, uint64_t seed) : cdf_(n), perm_(n) {
  double sum = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
  std::iota(perm_.begin(), perm_.end(), 0u);
  Rng rng(seed);
  for (uint64_t i = n; i > 1; --i) {
    std::swap(perm_[i - 1], perm_[rng.Below(i)]);
  }
}

uint64_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const size_t rank = std::min<size_t>(it - cdf_.begin(), cdf_.size() - 1);
  return perm_[rank];
}

// --- values and keys ----------------------------------------------------------

namespace {

// The value's 8-byte header; its low bits also pick the fill byte.
uint64_t ValueHash(const std::string& key, uint64_t version) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the key
  for (const char c : key) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ULL;
  }
  return Rng::Derive(h, version);
}

}  // namespace

std::string MakeValue(const std::string& key, uint64_t version, size_t size) {
  const uint64_t h = ValueHash(key, version);
  std::string v(size, static_cast<char>('a' + h % 26));
  std::memcpy(v.data(), &h, std::min(size, sizeof(h)));
  return v;
}

bool IsValue(std::string_view v, const std::string& key, uint64_t version,
             size_t size) {
  const uint64_t h = ValueHash(key, version);
  const size_t head = std::min(size, sizeof(h));
  if (v.size() != size || std::memcmp(v.data(), &h, head) != 0) {
    return false;
  }
  const char fill = static_cast<char>('a' + h % 26);
  return std::all_of(v.begin() + head, v.end(), [fill](char c) { return c == fill; });
}

std::string IndexKey(char prefix, uint64_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%c%010llu", prefix,
                static_cast<unsigned long long>(index));
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

// --- percentiles --------------------------------------------------------------

namespace {

constexpr uint64_t kMinBeyond = 10;
constexpr double kLadder[] = {0.99, 0.95, 0.9, 0.75, 0.5};

// 1-based rank of quantile p among n sorted samples.
uint64_t RankOf(uint64_t n, double p) {
  const auto r = static_cast<uint64_t>(std::ceil(p * static_cast<double>(n)));
  return std::clamp<uint64_t>(r, 1, n);
}

}  // namespace

double ChooseQuantile(uint64_t n, double p, std::string* note) {
  if (n > 0 && n - RankOf(n, p) >= kMinBeyond) {
    return p;
  }
  for (const double q : kLadder) {
    if (q < p && n > 0 && n - RankOf(n, q) >= kMinBeyond) {
      if (note != nullptr) {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "p%g unsupported at n=%llu: reports p%g",
                      p * 100, static_cast<unsigned long long>(n), q * 100);
        *note = buf;
      }
      return q;
    }
  }
  if (note != nullptr) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "p%g unsupported at n=%llu: reports the median", p * 100,
                  static_cast<unsigned long long>(n));
    *note = buf;
  }
  return 0.5;
}

double LatencySamples::QuantileMs(double p, bool tail, std::string* note) const {
  const uint64_t n = count();
  if (n == 0) {
    if (note != nullptr) {
      *note = "no samples";
    }
    return 0.0;
  }
  const double q = tail ? ChooseQuantile(n, p, note) : p;
  if (!sorted_) {
    std::sort(ns_.begin(), ns_.end());
    sorted_ = true;
  }
  const uint64_t rank = RankOf(n, q);
  if (rank > ns_.size()) {
    return std::numeric_limits<double>::infinity();  // a failed request
  }
  return static_cast<double>(ns_[rank - 1]) / 1e6;
}

double LatencySamples::MeanMs() const {
  if (failures_ > 0) {
    return std::numeric_limits<double>::infinity();
  }
  if (ns_.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (const int64_t v : ns_) {
    sum += static_cast<double>(v);
  }
  return sum / static_cast<double>(ns_.size()) / 1e6;
}

double QuantileOf(std::vector<double> values, double p, bool tail,
                  std::string* note) {
  if (values.empty()) {
    if (note != nullptr) {
      *note = "no samples";
    }
    return 0.0;
  }
  const double q = tail ? ChooseQuantile(values.size(), p, note) : p;
  std::sort(values.begin(), values.end());
  return values[RankOf(values.size(), q) - 1];
}

// --- resources ------------------------------------------------------------------

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
  u.maxrss_kb = static_cast<double>(ru.ru_maxrss);  // KiB on Linux
  return u;
}

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Tracer -------------------------------------------------------------------

int Tracer::Begin(const std::string& name, SimTime vt, int parent) {
  if (!enabled_) {
    return -1;
  }
  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = parent;
  s.wall_start_s = WallNow();
  s.vt_start = vt;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::End(int id, SimTime vt, std::map<std::string, double> counters) {
  if (!enabled_ || id < 0) {
    return;
  }
  Span& s = spans_[static_cast<size_t>(id)];
  s.wall_end_s = WallNow();
  s.vt_end = vt;
  s.counters = std::move(counters);
}

bool Tracer::Write(const std::string& path,
                   const std::map<std::string, std::string>& notes) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // Chrome trace-event format (chrome://tracing, Perfetto): one complete
  // ("X") event per span, times in microseconds from the recorder's origin.
  std::fprintf(f, "{\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,"
                 "\"vt_start_ms\":%.6f,\"vt_end_ms\":%.6f",
                 i == 0 ? "" : ",", JsonEscape(s.name).c_str(),
                 (s.wall_start_s - origin_) * 1e6,
                 (s.wall_end_s - s.wall_start_s) * 1e6, s.id, s.parent,
                 static_cast<double>(s.vt_start) / 1e6,
                 static_cast<double>(s.vt_end) / 1e6);
    for (const auto& [k, v] : s.counters) {
      std::fprintf(f, ",\"%s\":%.17g", JsonEscape(k).c_str(), v);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n],\"notes\":{");
  bool first = true;
  for (const auto& [k, v] : notes) {
    std::fprintf(f, "%s\"%s\":\"%s\"", first ? "" : ",", JsonEscape(k).c_str(),
                 JsonEscape(v).c_str());
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

// --- self-tests -------------------------------------------------------------------

std::vector<std::string> SelfTest() {
  std::vector<std::string> failed;
  auto expect = [&failed](bool ok, const char* name) {
    if (!ok) {
      failed.push_back(name);
    }
  };

  // >= 10 samples beyond: p99 needs n >= 1000; below that it falls back.
  std::string note;
  expect(ChooseQuantile(1000, 0.99, &note) == 0.99 && note.empty(),
         "p99 kept at n=1000");
  note.clear();
  expect(ChooseQuantile(999, 0.99, &note) == 0.95 && !note.empty(),
         "p99 falls back to p95 at n=999");
  note.clear();
  expect(ChooseQuantile(8, 0.99, &note) == 0.5 && !note.empty(),
         "tiny samples fall back to the median, saying so");

  // Exact values: 1..1000 ms, p99 is the 990th sample.
  LatencySamples s;
  for (int i = 1; i <= 1000; ++i) {
    s.Add(static_cast<int64_t>(i) * 1000000);
  }
  expect(s.QuantileMs(0.99, true, nullptr) == 990.0, "p99 value");
  expect(s.QuantileMs(0.5, false, nullptr) == 500.0, "p50 value");

  // Failures count as missing every bound: 2% failed pushes p99 to +inf,
  // and they count toward the median's population too.
  LatencySamples f;
  for (int i = 0; i < 980; ++i) {
    f.Add(1000000);
  }
  for (int i = 0; i < 20; ++i) {
    f.AddFailure();
  }
  expect(std::isinf(f.QuantileMs(0.99, true, nullptr)),
         "failed requests miss the p99 bound");
  expect(f.count() == 1000 && f.failures() == 20, "failures are counted");

  // CPU and RSS come from getrusage and move with real work.
  const Usage before = ReadUsage();
  std::vector<char> block(64 << 20, 1);
  volatile uint64_t sink = 0;
  for (size_t i = 0; i < block.size(); i += 4096) {
    sink = sink + static_cast<uint64_t>(block[i]);
  }
  for (int i = 0; i < 20000000; ++i) {
    sink = sink + static_cast<uint64_t>(i);
  }
  const Usage after = ReadUsage();
  expect(after.cpu_s > before.cpu_s, "getrusage CPU advances");
  expect(after.maxrss_kb >= before.maxrss_kb + 32 * 1024,
         "getrusage peak RSS sees a 64 MiB allocation");

  // Seeded inputs repeat.
  Rng a(7), b(7);
  bool same = true;
  for (int i = 0; i < 100; ++i) {
    same = same && a.Next() == b.Next();
  }
  expect(same, "seeded streams repeat");
  expect(MakeValue("k", 3, 100) == MakeValue("k", 3, 100) &&
             MakeValue("k", 3, 100) != MakeValue("k", 4, 100),
         "values depend on key and version");
  std::string damaged = MakeValue("k", 3, 100);
  damaged[50] ^= 1;
  expect(IsValue(MakeValue("k", 3, 100), "k", 3, 100) &&
             !IsValue(MakeValue("k", 4, 100), "k", 3, 100) &&
             !IsValue(damaged, "k", 3, 100) &&
             !IsValue(MakeValue("k", 3, 99), "k", 3, 100),
         "IsValue matches exactly MakeValue");
  return failed;
}

}  // namespace libra::perfbench
