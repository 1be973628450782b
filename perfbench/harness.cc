// Benchmark harness binary: runs ONE repetition of one workload and prints
// one JSON line (correctness checks, wall/CPU/RSS readings, virtual-time
// metrics, notes). run.py repeats it, checks determinism, and reduces the
// repetitions to the metrics BENCHMARK.json names.
//
//   libra_perfbench --workload=NAME --seed=N [--threads=N] [--trace-out=PATH]
//   libra_perfbench --selftest
//
// With --trace-out the repetition records spans around its calls into the
// program and writes them to PATH (Chrome trace-event JSON) at exit.

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/harness.h"

namespace libra::perfbench {
namespace {

// %.17g round-trips doubles exactly, so run.py can compare repetitions bit
// for bit; non-finite values use the tokens Python's json module accepts.
std::string Num(double v) {
  if (std::isnan(v)) {
    return "NaN";
  }
  if (std::isinf(v)) {
    return v > 0 ? "Infinity" : "-Infinity";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// {"key":value,...} with values already rendered by `render`.
template <typename V, typename Render>
std::string JsonObject(const std::map<std::string, V>& m, Render render) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) {
      out += ',';
    }
    out += '"';
    out += JsonEscape(k);
    out += "\":";
    out += render(v);
  }
  return out + "}";
}

std::string NumMap(const std::map<std::string, double>& m) {
  return JsonObject(m, Num);
}

std::string StrMap(const std::map<std::string, std::string>& m) {
  return JsonObject(m, [](const std::string& v) {
    std::string quoted = "\"";
    quoted += JsonEscape(v);
    quoted += '"';
    return quoted;
  });
}

std::string StrList(const std::vector<std::string>& v) {
  std::string out = "[";
  for (const std::string& s : v) {
    out += (out.size() > 1 ? ",\"" : "\"") + JsonEscape(s) + "\"";
  }
  return out + "]";
}

int BadFlags(const char* msg) {
  std::fprintf(stderr,
               "libra_perfbench: %s\nusage: libra_perfbench --workload=NAME "
               "--seed=N [--threads=N] [--trace-out=PATH | --setup-only] | "
               "--selftest\n",
               msg);
  return 2;
}

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

void ExitAfterSetup(const RepResult& r) {
  std::printf("{\"setup_s\":%s,\"failed_checks\":%s}\n", Num(r.setup_s).c_str(),
              StrList(r.failed_checks).c_str());
  std::fflush(stdout);
  std::_Exit(r.failed_checks.empty() ? 0 : 1);
}

}  // namespace libra::perfbench

int main(int argc, char** argv) {
  using namespace libra::perfbench;
  RunConfig cfg;
  cfg.process_start_s = WallNow();
  std::string trace_out;
  bool selftest = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    long long v = 0;
    if (std::strncmp(a, "--workload=", 11) == 0) {
      cfg.workload = a + 11;
    } else if (std::strncmp(a, "--seed=", 7) == 0) {
      if (!ParseInt(a + 7, 0, (1LL << 62), &v)) {
        return BadFlags("--seed must be a non-negative integer");
      }
      cfg.seed = static_cast<uint64_t>(v);
      have_seed = true;
    } else if (std::strncmp(a, "--threads=", 10) == 0) {
      if (!ParseInt(a + 10, 1, 64, &v)) {
        return BadFlags("--threads must be 1..64");
      }
      cfg.threads = static_cast<int>(v);
    } else if (std::strncmp(a, "--trace-out=", 12) == 0) {
      trace_out = a + 12;
    } else if (std::strcmp(a, "--setup-only") == 0) {
      cfg.setup_only = true;
    } else if (std::strcmp(a, "--selftest") == 0) {
      selftest = true;
    } else {
      return BadFlags((std::string("unknown flag ") + a).c_str());
    }
  }

  if (selftest) {
    const std::vector<std::string> failed = SelfTest();
    for (const std::string& f : failed) {
      std::fprintf(stderr, "selftest FAILED: %s\n", f.c_str());
    }
    std::printf("{\"selftest_failed\":%zu}\n", failed.size());
    return failed.empty() ? 0 : 1;
  }
  if (!have_seed) {
    return BadFlags("--seed is required");
  }

  Tracer tracer(!trace_out.empty());
  RepResult r;
  if (cfg.workload == "node_ingest") {
    r = RunNodeIngest(cfg, tracer);
  } else if (cfg.workload == "node_read_cached") {
    r = RunNodeReadCached(cfg, tracer);
  } else if (cfg.workload == "cluster_tenants_rf2") {
    r = RunClusterTenants(cfg, tracer);
  } else {
    return BadFlags(("unknown workload '" + cfg.workload + "'").c_str());
  }
  const libra::perfbench::Usage end = ReadUsage();

  if (tracer.enabled() && !tracer.Write(trace_out, r.notes)) {
    r.failed_checks.push_back("trace file writable: " + trace_out);
  }
  const std::string checks = StrList(r.failed_checks);
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%d,\"traced\":%s,"
      "\"failed_checks\":%s,\"attempted\":%llu,\"failed\":%llu,"
      "\"completed\":%llu,\"setup_s\":%s,\"measure_s\":%s,\"measure_cpu_s\":%s,"
      "\"peak_rss_kb\":%s,\"virt\":%s,\"wall\":%s,\"notes\":%s}\n",
      JsonEscape(cfg.workload).c_str(), static_cast<unsigned long long>(cfg.seed),
      cfg.threads, tracer.enabled() ? "true" : "false", checks.c_str(),
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.completed), Num(r.setup_s).c_str(),
      Num(r.measure_s).c_str(), Num(r.measure_cpu_s).c_str(),
      Num(end.maxrss_kb).c_str(), NumMap(r.virt).c_str(), NumMap(r.wall).c_str(),
      StrMap(r.notes).c_str());
  return r.failed_checks.empty() ? 0 : 1;
}
