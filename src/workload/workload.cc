#include "src/workload/workload.h"

#include <algorithm>
#include <cassert>

namespace libra::workload {

namespace {

LogNormalSize MakeDist(const SizeSpec& s) {
  return LogNormalSize(s.mean_bytes, s.sigma_bytes, s.min_bytes, s.max_bytes);
}

}  // namespace

std::string MakeValue(std::string_view key, uint64_t size) {
  std::string out;
  out.reserve(size);
  while (out.size() < size) {
    out.append(key.data(), std::min<uint64_t>(key.size(), size - out.size()));
    if (out.size() < size) {
      out.push_back('|');
    }
  }
  out.resize(size);
  return out;
}

// --- RawIoWorkload ---

RawIoWorkload::RawIoWorkload(sim::EventLoop& loop,
                             iosched::IoScheduler& scheduler,
                             iosched::TenantId tenant, RawIoSpec spec,
                             uint64_t seed)
    : loop_(loop),
      scheduler_(scheduler),
      tenant_(tenant),
      spec_(spec),
      rng_(seed),
      read_dist_(MakeDist(spec.read_size)),
      write_dist_(MakeDist(spec.write_size)) {}

void RawIoWorkload::Start(sim::TaskGroup& group, SimTime end_time) {
  for (int w = 0; w < spec_.workers; ++w) {
    group.Spawn(Worker(end_time));
  }
}

sim::Task<void> RawIoWorkload::Worker(SimTime end_time) {
  while (loop_.Now() < end_time) {
    const bool is_read = rng_.Bernoulli(spec_.read_fraction);
    const uint64_t size = is_read ? read_dist_.Sample(rng_)
                                  : write_dist_.Sample(rng_);
    const uint64_t aligned = std::max<uint64_t>(size, 1);
    const uint64_t slots =
        std::max<uint64_t>(1, spec_.working_set_bytes / aligned);
    const uint64_t offset = rng_.NextU64(slots) * aligned;
    const iosched::IoTag tag{
        .tenant = tenant_,
        .app = is_read ? iosched::AppRequest::kGet : iosched::AppRequest::kPut};
    if (is_read) {
      co_await scheduler_.Read(tag, offset, static_cast<uint32_t>(aligned));
    } else {
      co_await scheduler_.Write(tag, offset, static_cast<uint32_t>(aligned));
    }
    ++ops_completed_;
  }
}

// --- KvTenantWorkload ---

KvTenantWorkload::KvTenantWorkload(sim::EventLoop& loop, kv::StorageNode& node,
                                   iosched::TenantId tenant,
                                   KvWorkloadSpec spec, uint64_t seed)
    : loop_(loop), node_(node), tenant_(tenant), spec_(spec), rng_(seed) {
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

std::string KvTenantWorkload::GetKey(uint64_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), spec_.disjoint_get_range ? "g%010llu" : "p%010llu",
                static_cast<unsigned long long>(index));
  return spec_.key_prefix + buf;
}

std::string KvTenantWorkload::PutKey(uint64_t index) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "p%010llu",
                static_cast<unsigned long long>(index));
  return spec_.key_prefix + buf;
}

sim::Task<void> KvTenantWorkload::Preload() {
  // PUT range (churned by the workload).
  for (uint64_t i = 0; i < put_keys_; ++i) {
    const std::string key = PutKey(i);
    co_await node_.Put(tenant_, key, MakeValue(key, put_dist_->Sample(rng_)));
  }
  // GET range (stable objects), when disjoint.
  if (spec_.disjoint_get_range) {
    for (uint64_t i = 0; i < get_keys_; ++i) {
      const std::string key = GetKey(i);
      co_await node_.Put(tenant_, key,
                         MakeValue(key, get_dist_->Sample(rng_)));
    }
  }
}

void KvTenantWorkload::Start(sim::TaskGroup& group, SimTime end_time) {
  for (int w = 0; w < spec_.workers; ++w) {
    group.Spawn(Worker(end_time));
  }
}

sim::Task<void> KvTenantWorkload::Worker(SimTime end_time) {
  while (loop_.Now() < end_time) {
    // The scan_fraction > 0 short-circuit is load-bearing: at the default 0
    // no Bernoulli is drawn, so the GET/PUT RNG stream (and with it every
    // historical run) is byte-for-byte unchanged.
    if (spec_.scan_fraction > 0.0 && rng_.Bernoulli(spec_.scan_fraction)) {
      const uint64_t idx = rng_.NextU64(get_keys_);
      co_await node_.Scan(tenant_, GetKey(idx), std::string(),
                          static_cast<size_t>(std::max(1, spec_.scan_span)));
      ++scans_done_;
    } else if (rng_.Bernoulli(spec_.get_fraction)) {
      const uint64_t idx = zipf_ != nullptr ? zipf_->Sample(rng_) % get_keys_
                                            : rng_.NextU64(get_keys_);
      std::string key = GetKey(idx);
      // Same short-circuit contract as scan_fraction: at the default 0 no
      // Bernoulli is drawn. "#" sorts above the digit tail, so the miss key
      // lands between this live key and its successor — in range for table
      // pruning, absent from every filter.
      if (spec_.get_absent_fraction > 0.0 &&
          rng_.Bernoulli(spec_.get_absent_fraction)) {
        key.push_back('#');
      }
      co_await node_.Get(tenant_, key);
      ++gets_done_;
    } else {
      const uint64_t idx = zipf_ != nullptr ? zipf_->Sample(rng_) % put_keys_
                                            : rng_.NextU64(put_keys_);
      const std::string key = PutKey(idx);
      co_await node_.Put(tenant_, key,
                         MakeValue(key, put_dist_->Sample(rng_)));
      ++puts_done_;
    }
  }
}

}  // namespace libra::workload
