#include "src/obs/json.h"

#include "src/obs/histogram.h"

#include <cmath>
#include <cstdio>

namespace libra::obs {

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

void JsonWriter::Key(std::string_view key) {
  Prefix();
  out_ += '"';
  out_ += JsonEscape(key);
  out_ += "\":";
  first_ = true;  // the upcoming value needs no comma
}

void JsonWriter::String(std::string_view v) {
  Prefix();
  out_ += '"';
  out_ += JsonEscape(v);
  out_ += '"';
}

void JsonWriter::Int(int64_t v) {
  Prefix();
  out_ += std::to_string(v);
}

void JsonWriter::Uint(uint64_t v) {
  Prefix();
  out_ += std::to_string(v);
}

void JsonWriter::Double(double v) {
  Prefix();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
}

void JsonWriter::Bool(bool v) {
  Prefix();
  out_ += v ? "true" : "false";
}

void JsonWriter::Raw(std::string_view json) {
  Prefix();
  out_ += json;
}

std::string HistogramToJson(const LatencyHistogram& h, bool include_buckets) {
  JsonWriter w;
  w.BeginObject();
  w.Key("count");
  w.Uint(h.count());
  w.Key("min_ns");
  w.Uint(h.min());
  w.Key("max_ns");
  w.Uint(h.max());
  w.Key("mean_ns");
  w.Double(h.mean());
  w.Key("p50");
  w.Uint(h.Percentile(0.50));
  w.Key("p90");
  w.Uint(h.Percentile(0.90));
  w.Key("p99");
  w.Uint(h.Percentile(0.99));
  w.Key("p999");
  w.Uint(h.Percentile(0.999));
  if (include_buckets) {
    w.Key("buckets");
    w.BeginArray();
    h.ForEachBucket([&w](uint64_t lo, uint64_t width, uint64_t count) {
      w.BeginArray();
      w.Uint(lo);
      w.Uint(width);
      w.Uint(count);
      w.EndArray();
    });
    w.EndArray();
  }
  w.EndObject();
  return w.Take();
}

}  // namespace libra::obs
