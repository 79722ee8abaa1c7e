// End-to-end benchmark of the served SNB database: set-up, one workload
// over loopback, oracle check, and one JSON result line.
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out <file>] [--trace-file <file>]
//
// With --trace 0 the last stdout line carries the end-to-end metrics;
// with --trace 1, the per-layer metrics of a traced run. Exits 3 when a
// reply disagrees with the oracle.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "runner.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_SIMD
#define E2E_SIMD 1
#endif

namespace e2e {
namespace {

// The set-up is repeated and its median reported; the last one is used.
constexpr int kSetups = 3;

bool ParseArgs(int argc, char** argv, Options* opt, std::string* err) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *err = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt->trace = value == "1";
      if (value != "0" && value != "1") *err = "--trace takes 0 or 1";
    } else if (flag == "--commit") {
      opt->commit = value;
    } else if (flag == "--out") {
      opt->out_path = value;
    } else if (flag == "--trace-file") {
      opt->trace_path = value;
    } else {
      *err = "unknown flag " + flag;
    }
    if (end != nullptr && *end != '\0') *err = "bad number for " + flag + ": " + value;
    if (!err->empty()) return false;
  }
  if (opt->workload.empty()) *err = "--workload is required";
  if (opt->seconds <= 0 || opt->seconds > 120) *err = "--seconds must be in (0, 120]";
  return err->empty();
}

std::string Unit(const std::string& name) {
  auto has = [&](const char* s) { return name.find(s) != std::string::npos; };
  if (name == "setup_s") return "s";
  if (name == "peak_rss_mb") return "MB";
  if (name == "append_rows_per_s") return "rows/s";
  if (has("_qps")) return "1/s";
  if (has("_us")) return "us";
  if (has("_ms")) return "ms";
  if (has("_pct")) return "%";
  if (has("bytes")) return "bytes";
  if (has("rate") || has("ratio") || has("per_row") || has("over_session") ||
      has("batch_span")) {
    return "ratio";
  }
  return "count";
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    if (out.size() > 1) out += ", ";
    out += "\"" + name + "\": {\"value\": " + Number(value) + ", \"unit\": \"" + Unit(name) + "\"}";
  }
  return out + "}";
}

std::string Fingerprint(const Options& opt) {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"build_type\": \""
     << E2E_BUILD_TYPE << "\", \"simd\": " << (E2E_SIMD ? "true" : "false")
     << ", \"compiler\": \"" << Escape(compiler) << "\", \"scale_factor\": "
     << Number(kScaleFactor) << ", \"seed\": " << opt.seed << ", \"commit\": \""
     << Escape(opt.commit) << "\"}";
  return os.str();
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  Options opt;
  std::string err;
  if (!ParseArgs(argc, argv, &opt, &err)) {
    std::fprintf(stderr, "e2e_bench: %s\n", err.c_str());
    return 2;
  }

  std::vector<double> setup_seconds;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();
    double seconds = 0;
    env = SetUp(opt, &seconds);
    if (env == nullptr) return 1;
    setup_seconds.push_back(seconds);
  }

  RunResult r;
  if (!RunWorkload(opt, *env, &r, &err)) {
    std::fprintf(stderr, "e2e_bench: %s\n", err.c_str());
    return 2;
  }
  r.end_to_end["setup_s"] = Percentile(setup_seconds, 0.5);
  env.reset();

  for (const std::string& e : r.errors) std::fprintf(stderr, "failure: %s\n", e.c_str());
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  const double error_rate =
      static_cast<double>(r.failed) / static_cast<double>(std::max<uint64_t>(1, r.attempted));
  const std::string fingerprint = Fingerprint(opt);
  std::printf("fingerprint: %s\n", fingerprint.c_str());
  std::printf("error_rate: %s (%llu failed of %llu attempted, %llu oracle mismatches)\n",
              Number(error_rate).c_str(), static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.mismatches));

  const std::string metrics = MetricsJson(opt.trace ? r.per_layer : r.end_to_end);
  if (!opt.out_path.empty()) {
    std::ofstream f(opt.out_path);
    f << "{\"fingerprint\": " << fingerprint << ", \"workload\": \"" << Escape(opt.workload)
      << "\", \"trace\": " << (opt.trace ? 1 : 0) << ", \"attempted\": " << r.attempted
      << ", \"failed\": " << r.failed << ", \"error_rate\": " << Number(error_rate)
      << ", \"metrics\": " << metrics << "}\n";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              r.mismatches == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return r.mismatches == 0 ? 0 : 3;
}
