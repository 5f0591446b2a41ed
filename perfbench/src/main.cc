// perfbench: the Armus benchmark program. Runs one workload and prints its
// metrics, one per line with unit and sample count, then one JSON object
// as the last line of stdout. Exits 1 when a correctness check failed.
//
// Usage: perfbench --workload local_avoid|local_detect|dist_detect|kv_fleet
//                  [--seed N] [--seconds S] [--trace 0|1] [--spans-out PATH]
//
// perfbench/run.py builds this binary and is the command to use (see
// perfbench/README.md).

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using namespace perfbench;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void print(const std::string& workload, const Options& options,
           const Outcome& out) {
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const auto& [name, m] : out.metrics) {
    std::string label = name;
    if (!m.label.empty()) label += " [" + m.label + "]";
    std::printf("  %-34s %14.6g %-6s", label.c_str(), m.value, m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%llu)", static_cast<unsigned long long>(m.samples));
    std::printf("\n");
  }
  std::printf("  attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const std::string& failure : out.failures) {
    std::printf("  CHECK FAILED: %s\n", failure.c_str());
  }

  std::string json = "{\"correct\":";
  json += out.correct() ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(out.attempted);
  json += ",\"failed\":" + std::to_string(out.failed);
  json += ",\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    if (i) json += ",";
    json += json_string(out.failures[i]);
  }
  json += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : out.metrics) {
    if (!first) json += ",";
    first = false;
    json += json_string(name) + ":{\"value\":" + json_number(m.value) +
            ",\"unit\":" + json_string(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "local_avoid|local_detect|dist_detect|kv_fleet\n"
               "                 [--seed N] [--seconds S] [--trace 0|1] "
               "[--spans-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value == "1";
      } else if (arg == "--spans-out") {
        options.spans_out = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (options.seconds <= 0) return usage();

  try {
    Outcome out;
    if (options.workload == "local_avoid") {
      out = run_local(options, true);
    } else if (options.workload == "local_detect") {
      out = run_local(options, false);
    } else if (options.workload == "dist_detect") {
      out = run_dist_detect(options);
    } else if (options.workload == "kv_fleet") {
      out = run_kv_fleet(options);
    } else {
      return usage();
    }
    print(options.workload, options, out);
    return out.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 3;
  }
}
