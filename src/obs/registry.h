// Metrics registry: named counters, gauges, and latency histograms keyed by
// (tenant, app request, internal op).
//
// Usage discipline (what keeps the hot path nearly allocation-free): callers
// resolve each series ONCE at setup time — Counter()/Gauge()/Histogram()
// may allocate the series node — and keep the returned reference. The
// returned references are stable for the registry's lifetime (node-based
// map storage), so per-request code touches only the pre-registered object.
// The one allocation left on that path is a histogram's: the first sample in
// a new octave grows its storage by a 128-byte chunk (at most 37 times per
// histogram, usually 1-3).
//
// The tag fields are plain integers rather than the iosched enums so the
// observability layer stays below every other subsystem; callers cast their
// enums in (AppRequest / InternalOp fit in uint8_t by definition).

#ifndef LIBRA_SRC_OBS_REGISTRY_H_
#define LIBRA_SRC_OBS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

#include "src/obs/histogram.h"

namespace libra::obs {

// Series tag: which (tenant, app request, internal op) a metric describes.
// kNoTenant marks node-global series.
inline constexpr uint32_t kNoTenant = UINT32_MAX;

struct SeriesKey {
  uint32_t tenant = kNoTenant;
  uint8_t app = 0;       // iosched::AppRequest
  uint8_t internal = 0;  // iosched::InternalOp

  friend bool operator<(const SeriesKey& a, const SeriesKey& b) {
    return std::tie(a.tenant, a.app, a.internal) <
           std::tie(b.tenant, b.app, b.internal);
  }
  friend bool operator==(const SeriesKey& a, const SeriesKey& b) {
    return std::tie(a.tenant, a.app, a.internal) ==
           std::tie(b.tenant, b.app, b.internal);
  }
};

class Counter {
 public:
  void Add(double d = 1.0) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Find-or-create. References stay valid for the registry's lifetime.
  Counter& GetCounter(const std::string& name, SeriesKey key = {});
  Gauge& GetGauge(const std::string& name, SeriesKey key = {});
  LatencyHistogram& GetHistogram(const std::string& name, SeriesKey key = {});

  // Lookup without creating; nullptr when the series was never registered.
  const Counter* FindCounter(const std::string& name, SeriesKey key = {}) const;
  const Gauge* FindGauge(const std::string& name, SeriesKey key = {}) const;
  const LatencyHistogram* FindHistogram(const std::string& name,
                                        SeriesKey key = {}) const;

  // Iteration for export: fn(name, key, metric).
  template <typename Fn>
  void ForEachCounter(Fn&& fn) const {
    for (const auto& [k, v] : counters_) {
      fn(k.first, k.second, v);
    }
  }
  template <typename Fn>
  void ForEachGauge(Fn&& fn) const {
    for (const auto& [k, v] : gauges_) {
      fn(k.first, k.second, v);
    }
  }
  template <typename Fn>
  void ForEachHistogram(Fn&& fn) const {
    for (const auto& [k, v] : histograms_) {
      fn(k.first, k.second, v);
    }
  }

  size_t num_series() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  using Key = std::pair<std::string, SeriesKey>;
  // std::map: stable addresses across inserts (the registration contract).
  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, LatencyHistogram> histograms_;
};

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_REGISTRY_H_
