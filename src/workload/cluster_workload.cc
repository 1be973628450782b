#include "src/workload/cluster_workload.h"

#include <algorithm>
#include <cstdio>

namespace libra::workload {

namespace {

LogNormalSize MakeDist(const SizeSpec& s) {
  return LogNormalSize(s.mean_bytes, s.sigma_bytes, s.min_bytes, s.max_bytes);
}

}  // namespace

ClusterTenantWorkload::ClusterTenantWorkload(sim::EventLoop& loop,
                                             cluster::TenantHandle handle,
                                             KvWorkloadSpec spec,
                                             uint64_t seed)
    : loop_(loop), handle_(handle), spec_(spec), seed_(seed), rng_(seed) {
  get_dist_ = std::make_unique<LogNormalSize>(MakeDist(spec_.get_size));
  put_dist_ = std::make_unique<LogNormalSize>(MakeDist(spec_.put_size));
  put_keys_ = std::max<uint64_t>(
      16, spec_.live_bytes_target /
              static_cast<uint64_t>(std::max(1.0, spec_.put_size.mean_bytes)));
  get_keys_ =
      spec_.disjoint_get_range
          ? std::max<uint64_t>(
                16, spec_.live_bytes_target /
                        static_cast<uint64_t>(
                            std::max(1.0, spec_.get_size.mean_bytes)))
          : put_keys_;
  if (spec_.zipf_theta > 0.0) {
    zipf_ = std::make_unique<ZipfGenerator>(std::max(get_keys_, put_keys_),
                                            spec_.zipf_theta);
  }
}

std::string ClusterTenantWorkload::GetKey(uint64_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf),
                spec_.disjoint_get_range ? "g%010llu" : "p%010llu",
                static_cast<unsigned long long>(index));
  return spec_.key_prefix + buf;
}

std::string ClusterTenantWorkload::PutKey(uint64_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%010llu",
                static_cast<unsigned long long>(index));
  return spec_.key_prefix + buf;
}

uint64_t ClusterTenantWorkload::GetObjectSize(uint64_t index) const {
  // A pure function of (seed, index): correctness checks recompute the
  // exact preloaded object without replaying the workload's RNG stream.
  Rng rng(seed_ ^ (index * 0x9E3779B97F4A7C15ULL) ^ 0xC1057E12ULL);
  return get_dist_->Sample(rng);
}

sim::Task<void> ClusterTenantWorkload::Preload() {
  for (uint64_t i = 0; i < put_keys_; ++i) {
    const std::string key = PutKey(i);
    co_await handle_.Put(key, MakeValue(key, put_dist_->Sample(rng_)));
  }
  if (spec_.disjoint_get_range) {
    for (uint64_t i = 0; i < get_keys_; ++i) {
      const std::string key = GetKey(i);
      co_await handle_.Put(key, MakeValue(key, GetObjectSize(i)));
    }
  }
}

void ClusterTenantWorkload::Start(sim::TaskGroup& group, SimTime end_time) {
  for (int w = 0; w < spec_.workers; ++w) {
    group.Spawn(Worker(end_time));
  }
}

void ClusterTenantWorkload::CountError(const Status& s) {
  if (s.code() == StatusCode::kUnavailable) {
    ++unavailable_errors_;
  } else if (s.code() == StatusCode::kDeadlineExceeded) {
    ++deadline_errors_;
  }
}

sim::Task<void> ClusterTenantWorkload::Worker(SimTime end_time) {
  while (loop_.Now() < end_time) {
    // scan_fraction > 0 short-circuits before the Bernoulli so the default
    // mix draws exactly the historical GET/PUT RNG stream.
    if (spec_.scan_fraction > 0.0 && rng_.Bernoulli(spec_.scan_fraction)) {
      const uint64_t idx = rng_.NextU64(get_keys_);
      const Result<cluster::ScanEntries> r = co_await handle_.Scan(
          GetKey(idx), std::string(),
          static_cast<size_t>(std::max(1, spec_.scan_span)));
      if (!r.ok()) {
        ++scan_errors_;
        CountError(r.status());
      }
      ++scans_done_;
    } else if (rng_.Bernoulli(spec_.get_fraction)) {
      const uint64_t idx = zipf_ != nullptr ? zipf_->Sample(rng_) % get_keys_
                                            : rng_.NextU64(get_keys_);
      std::string key = GetKey(idx);
      // Same short-circuit contract as scan_fraction: at the default 0 no
      // Bernoulli is drawn. "#" sorts above the digit tail, so the miss key
      // lands between two live keys — in range for table pruning, absent
      // from every filter.
      if (spec_.get_absent_fraction > 0.0 &&
          rng_.Bernoulli(spec_.get_absent_fraction)) {
        key.push_back('#');
      }
      const Result<std::string> r = co_await handle_.Get(key);
      if (!r.ok() && r.status().code() != StatusCode::kNotFound) {
        CountError(r.status());
      }
      ++gets_done_;
    } else {
      const uint64_t idx = zipf_ != nullptr ? zipf_->Sample(rng_) % put_keys_
                                            : rng_.NextU64(put_keys_);
      const std::string key = PutKey(idx);
      const Status s = co_await handle_.Put(
          key, MakeValue(key, put_dist_->Sample(rng_)));
      if (!s.ok()) {
        ++put_errors_;
        CountError(s);
      }
      ++puts_done_;
    }
  }
}

}  // namespace libra::workload
