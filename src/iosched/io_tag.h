// IO tagging vocabulary (paper §2.2, §4.1).
//
// The persistence engine tags every low-level IO task with its resource
// principal (tenant), the originating application-level request type, and —
// for secondary IO — the internal engine operation performing it. These
// tags are what let Libra attribute FLUSH/COMPACT amplification back to the
// PUTs that caused it and build per-tenant app-request resource profiles.

#ifndef LIBRA_SRC_IOSCHED_IO_TAG_H_
#define LIBRA_SRC_IOSCHED_IO_TAG_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/common/trace_context.h"

namespace libra::iosched {

using TenantId = uint32_t;
inline constexpr TenantId kInvalidTenant = UINT32_MAX;

// A tenant's dense index on one node, assigned once at registration by the
// node's TenantSlots registry: every per-tenant table on the node is a
// vector indexed by it, so a request finds its tenant's state without a
// keyed lookup. A distinct type, so a slot never passes for a TenantId.
enum class TenantSlot : uint32_t { kNone = UINT32_MAX };
inline constexpr size_t SlotIndex(TenantSlot s) {
  return static_cast<size_t>(s);
}

enum class AppRequest : uint8_t {
  kNone = 0,  // unattributed (e.g., system maintenance)
  kGet = 1,
  kPut = 2,
  kScan = 3,  // bounded range scan (merge-read across the LSM)
};
inline constexpr int kNumAppRequests = 4;

// First attributable application class: loops over request classes skip
// kNone (slot 0), which never carries reservations or profiles.
inline constexpr int kFirstAppRequest = 1;

enum class InternalOp : uint8_t {
  kNone = 0,  // direct IO of the app request itself
  kFlush = 1,
  kCompact = 2,
  kReplicate = 3,  // re-replication / recovery copy stream
};
inline constexpr int kNumInternalOps = 4;

// Exhaustive by design: adding an AppRequest value without updating every
// switch over the enum is a compile error (-Wswitch), not a silent "?".
inline std::string_view AppRequestName(AppRequest a) {
  switch (a) {
    case AppRequest::kNone:
      return "none";
    case AppRequest::kGet:
      return "GET";
    case AppRequest::kPut:
      return "PUT";
    case AppRequest::kScan:
      return "SCAN";
  }
  return "?";  // unreachable for in-range values
}

inline std::string_view InternalOpName(InternalOp i) {
  switch (i) {
    case InternalOp::kNone:
      return "direct";
    case InternalOp::kFlush:
      return "FLUSH";
    case InternalOp::kCompact:
      return "COMPACT";
    case InternalOp::kReplicate:
      return "REPL";
  }
  return "?";  // unreachable for in-range values
}

struct IoTag {
  TenantId tenant = kInvalidTenant;
  AppRequest app = AppRequest::kNone;
  InternalOp internal = InternalOp::kNone;
  // Causal trace context of the request (or background op) issuing the IO.
  // Riding the tag means contexts flow through the WAL, group-commit
  // manifests, SSTable builders/readers and the scheduler without any
  // signature changes in those layers; invalid (all-zero) when untraced.
  TraceContext ctx{};
  // The tenant's slot on the node issuing the IO (kNone: resolved from
  // `tenant` at submission, for callers outside a node).
  TenantSlot slot = TenantSlot::kNone;
};

// One contributor's slice of a batched (shared) IOP: `bytes` of the op's
// payload belong to `tag`. A manifest — an ordered list of shares covering
// the op byte range exactly — lets the scheduler split the merged IOP's VOP
// cost back onto the (tenant, app-request, internal-op) tags that rode it,
// proportionally to bytes, with an exact-sum invariant (the split charges
// reconstruct the IOP's total cost bit-for-bit).
struct IoShare {
  IoTag tag;
  uint32_t bytes = 0;
};

// Normalized request units (paper reservations are in size-normalized 1KB
// requests): a 4KB GET counts as 4 normalized GETs; sub-1KB rounds up to 1.
inline double NormalizedRequests(uint64_t size_bytes) {
  const double units = static_cast<double>(size_bytes) / 1024.0;
  return units < 1.0 ? 1.0 : units;
}

}  // namespace libra::iosched

#endif  // LIBRA_SRC_IOSCHED_IO_TAG_H_
