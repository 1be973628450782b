// Minimal JSON output for the observability layer: an append-only writer
// used to emit stats snapshots. No third-party dependency — the project
// builds with the C++ toolchain alone. (The parser the tests validate
// these documents with lives in tests/support/json_parse.h.)
//
// The writer is deliberately low-level (callers manage {}/[] nesting with
// the scope helpers); the snapshot emitters are the only intended users.
// Doubles are rendered with %.17g (round-trippable); NaN/Inf — which JSON
// cannot represent — are emitted as null.

#ifndef LIBRA_SRC_OBS_JSON_H_
#define LIBRA_SRC_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace libra::obs {

// --- writing ---

class JsonWriter {
 public:
  // Value positions: call exactly one per element/field slot.
  void BeginObject() { Prefix(); out_ += '{'; first_ = true; }
  void EndObject() { out_ += '}'; first_ = false; }
  void BeginArray() { Prefix(); out_ += '['; first_ = true; }
  void EndArray() { out_ += ']'; first_ = false; }

  // Field key inside an object; follow with exactly one value.
  void Key(std::string_view key);

  void String(std::string_view v);
  void Int(int64_t v);
  void Uint(uint64_t v);
  void Double(double v);
  void Bool(bool v);

  // Splices pre-rendered JSON into a value slot (trusted input).
  void Raw(std::string_view json);

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  // Comma separation between sibling values.
  void Prefix() {
    if (!first_) {
      out_ += ',';
    }
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
};

// Escapes a string per RFC 8259 (quotes, backslash, control chars).
std::string JsonEscape(std::string_view s);

// --- canonical exports ---

class LatencyHistogram;

// Histogram summary as a JSON object:
//   {"count":N,"min_ns":N,"max_ns":N,"mean_ns":F,
//    "p50":N,"p90":N,"p99":N,"p999":N,
//    "buckets":[[lower_bound,width,count],...]}   (non-empty buckets only)
// `include_buckets` false drops the buckets array (compact summaries).
std::string HistogramToJson(const LatencyHistogram& h,
                            bool include_buckets = true);

}  // namespace libra::obs

#endif  // LIBRA_SRC_OBS_JSON_H_
