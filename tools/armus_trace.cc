// armus-trace: the offline half of the trace subsystem (docs/TRACE_FORMAT.md).
//
//   armus-trace record -o run.trace [--] <command> [args...]
//       Runs <command> with ARMUS_TRACE set so every env-configured
//       verifier, site, and bench harness in it records; prints a trace
//       summary and propagates the command's exit code.
//
//   armus-trace verify [options] <trace> [trace...]
//       Replays the trace(s) — multiple files (one per process of a
//       distributed run) merge into one timeline — re-runs the deadlock
//       analysis at every recorded scan point, and compares the offline
//       verdict against the live run's recorded reports. Exit 0 iff they
//       agree.
//         --model wfg|sg|grg|auto   re-verify under a different graph model
//         --speed K                 pace the replay at K× recorded speed
//                                   (default: as fast as possible)
//         --final-scan              run one extra check after the last record
//         --compare task-sets|union|off
//                                   how verdicts are compared (default
//                                   task-sets; union for avoidance traces
//                                   whose reports merge cycles with the
//                                   interrupted task; off always exits 0)
//
//   armus-trace predict [options] <trace> [trace...]
//       Predictive verification (docs/PREDICT.md): search causally
//       consistent reorderings of the recorded events for deadlocks the
//       observed schedule never reached. Predicted cycles are reported
//       distinctly from observed/replayed ones; with --witness-dir each
//       prediction's witness schedule is written as a replayable trace.
//         --model wfg|sg|grg|auto   analysis model (default: trace meta)
//         --witness-dir DIR         write witness-N.trace per prediction
//         --max-anchors N           bound the cut search (default 4096)
//
//   armus-trace stats <trace> [trace...]
//       Per-file header metadata, record counts, duration, peak blocked.
//
//   armus-trace dot [--model M] [--at-scan N | --at-end] <trace> [trace...]
//       Reconstructs the replayed state (default: just before the first
//       recorded report, or the end when the run was deadlock-free) and
//       prints the analysis graph in GraphViz DOT syntax.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/graph_builder.h"
#include "core/status_codec.h"
#include "graph/dot.h"
#include "predict/predictor.h"
#include "trace/format.h"
#include "trace/replayer.h"

using namespace armus;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: armus-trace record -o <path> [--] <command> [args...]\n"
               "       armus-trace verify [--model M] [--speed K] [--final-scan]\n"
               "                          [--compare task-sets|union|off]\n"
               "                          <trace> [trace...]\n"
               "       armus-trace predict [--model M] [--witness-dir DIR]\n"
               "                           [--max-anchors N] <trace> [trace...]\n"
               "       armus-trace stats <trace> [trace...]\n"
               "       armus-trace dot [--model M] [--at-scan N | --at-end]\n"
               "                       <trace> [trace...]\n");
  return 2;
}

std::string describe_report(const DeadlockReport& report) {
  return report.to_string();
}

// --- record ------------------------------------------------------------------

int cmd_record(int argc, char** argv) {
  std::string path;
  int i = 0;
  for (; i < argc; ++i) {
    if (std::strcmp(argv[i], "-o") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strcmp(argv[i], "--") == 0) {
      ++i;
      break;
    } else {
      break;
    }
  }
  if (path.empty() || i >= argc) return usage();

  pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 1;
  }
  if (pid == 0) {
    ::setenv("ARMUS_TRACE", path.c_str(), 1);
    std::vector<char*> child_argv(argv + i, argv + argc);
    child_argv.push_back(nullptr);
    ::execvp(child_argv[0], child_argv.data());
    std::perror("execvp");
    std::_Exit(127);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 1;

  try {
    trace::MergedTrace trace({path});
    std::printf("recorded %zu records to %s (command exit %d)\n",
                trace.records().size(), path.c_str(), exit_code);
  } catch (const trace::TraceError& e) {
    std::fprintf(stderr,
                 "command exited %d but %s is unreadable: %s\n"
                 "(multi-process commands need one file per process: "
                 "ARMUS_TRACE with a %%p token)\n",
                 exit_code, path.c_str(), e.what());
    return exit_code != 0 ? exit_code : 1;
  }
  return exit_code;
}

// --- verify ------------------------------------------------------------------

enum class Compare { kTaskSets, kUnion, kOff };

std::set<TaskId> task_union(const std::vector<DeadlockReport>& reports) {
  std::set<TaskId> out;
  for (const DeadlockReport& report : reports) {
    out.insert(report.tasks.begin(), report.tasks.end());
  }
  return out;
}

int cmd_verify(int argc, char** argv) {
  trace::OfflineVerifier::Options options;
  Compare compare = Compare::kTaskSets;
  bool model_set = false;
  bool compare_set = false;
  std::vector<std::string> paths;

  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--model") {
      options.model = graph_model_from_string(value("--model"));
      model_set = true;
    } else if (arg == "--speed") {
      options.speed = std::stod(value("--speed"));
    } else if (arg == "--final-scan") {
      options.final_scan = true;
    } else if (arg == "--compare") {
      std::string mode = value("--compare");
      if (mode == "task-sets") {
        compare = Compare::kTaskSets;
      } else if (mode == "union") {
        compare = Compare::kUnion;
      } else if (mode == "off") {
        compare = Compare::kOff;
      } else {
        std::fprintf(stderr, "unknown --compare mode '%s'\n", mode.c_str());
        return 2;
      }
      compare_set = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(std::move(arg));
    }
  }
  if (paths.empty()) return usage();

  trace::MergedTrace merged(trace::expand_segments(paths));
  // Defaults come from the recorded run's header meta: re-verify under the
  // model the live run used, and compare unions for avoidance traces —
  // their live reports merge every cycle with the interrupted task, while
  // a detection-style replay reports raw cycles.
  for (const trace::TraceHeader& header : merged.headers()) {
    if (!model_set && !header.meta_value("ARMUS_GRAPH_MODEL").empty()) {
      options.model =
          graph_model_from_string(header.meta_value("ARMUS_GRAPH_MODEL"));
      model_set = true;
    }
    if (!compare_set && header.meta_value("ARMUS_MODE") == "avoidance") {
      compare = Compare::kUnion;
      compare_set = true;
    }
  }
  trace::OfflineVerifier verifier(options);
  trace::OfflineVerifier::Result result = verifier.run(merged);

  std::printf("replayed %llu records from %zu trace(s), ran %llu checks\n",
              static_cast<unsigned long long>(result.records), paths.size(),
              static_cast<unsigned long long>(result.scans));
  std::printf("live run reported %zu deadlock(s):\n", result.recorded.size());
  for (const DeadlockReport& report : result.recorded) {
    std::printf("  recorded: %s\n", describe_report(report).c_str());
  }
  std::printf("offline replay found %zu deadlock(s):\n", result.replayed.size());
  for (const DeadlockReport& report : result.replayed) {
    std::printf("  replayed: %s\n", describe_report(report).c_str());
  }

  bool match = true;
  switch (compare) {
    case Compare::kTaskSets:
      match = result.cycles_match();
      break;
    case Compare::kUnion:
      match = task_union(result.recorded) == task_union(result.replayed);
      break;
    case Compare::kOff:
      match = true;
      break;
  }
  if (match) {
    std::printf("VERDICT MATCH: offline replay reproduces the live run's "
                "deadlock report\n");
  } else if (result.recorded_subset_of_replayed()) {
    // The one-directional guarantee held (no recorded deadlock was lost);
    // the extras are cycles the live run's scan timing never reported —
    // a predictive finding, or a state change racing a scan append.
    std::printf("VERDICT MISMATCH: replay found additional deadlock(s) the "
                "live run did not report\n");
  } else {
    std::printf("VERDICT MISMATCH: replay lost recorded deadlock(s)\n");
  }
  return match ? 0 : 1;
}

// --- predict -----------------------------------------------------------------

int cmd_predict(int argc, char** argv) {
  predict::Predictor::Options options;
  options.max_anchors = 4096;
  bool model_set = false;
  std::string witness_dir;
  std::vector<std::string> paths;

  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--model" && i + 1 < argc) {
      options.model = graph_model_from_string(argv[++i]);
      model_set = true;
    } else if (arg == "--witness-dir" && i + 1 < argc) {
      witness_dir = argv[++i];
    } else if (arg == "--max-anchors" && i + 1 < argc) {
      options.max_anchors =
          static_cast<std::uint64_t>(std::stoull(argv[++i]));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(std::move(arg));
    }
  }
  if (paths.empty()) return usage();

  trace::MergedTrace merged(trace::expand_segments(paths));
  for (const trace::TraceHeader& header : merged.headers()) {
    if (!model_set && !header.meta_value("ARMUS_GRAPH_MODEL").empty()) {
      options.model =
          graph_model_from_string(header.meta_value("ARMUS_GRAPH_MODEL"));
      model_set = true;
    }
  }

  predict::Predictor predictor(options);
  predict::Predictor::Result result = predictor.run(merged);

  std::printf("observed schedule: %zu recorded, %zu replayed deadlock(s)\n",
              result.observed.size(), result.replayed.size());
  for (const DeadlockReport& report : result.observed) {
    std::printf("  observed: %s\n", describe_report(report).c_str());
  }
  for (const DeadlockReport& report : result.replayed) {
    std::printf("  replayed: %s\n", describe_report(report).c_str());
  }
  std::printf("cut search: %llu anchor(s), %llu cut(s) replayed%s\n",
              static_cast<unsigned long long>(result.anchors_tried),
              static_cast<unsigned long long>(result.cuts_checked),
              result.anchors_capped ? " (anchor cap hit)" : "");

  std::size_t witness_index = 0;
  if (!witness_dir.empty() && !result.predictions.empty()) {
    std::filesystem::create_directories(witness_dir);
  }
  for (const predict::Prediction& prediction : result.predictions) {
    std::printf("  %s: %s\n", prediction.novel ? "PREDICTED" : "confirmed",
                describe_report(prediction.report).c_str());
    if (!witness_dir.empty()) {
      std::string path = witness_dir + "/witness-" +
                         std::to_string(witness_index++) + ".trace";
      predict::write_witness(path, prediction);
      std::printf("    witness: %s (%zu records; replay with "
                  "'armus-trace verify --compare off --final-scan')\n",
                  path.c_str(), prediction.witness.size());
    }
  }
  std::printf("predict: %zu cycle(s) via cut search, %zu novel, "
              "%zu observed-or-replayed\n",
              result.predictions.size(), result.novel_count(),
              result.predictions.size() - result.novel_count());
  return 0;
}

// --- stats -------------------------------------------------------------------

int cmd_stats(int argc, char** argv) {
  if (argc == 0) return usage();
  std::vector<std::string> paths =
      trace::expand_segments(std::vector<std::string>(argv, argv + argc));
  for (const std::string& path : paths) {
    trace::TraceReader reader = trace::TraceReader::open(path);
    std::printf("%s:\n", path.c_str());
    for (const auto& [key, value] : reader.header().meta) {
      std::printf("  meta %s = %s\n", key.c_str(), value.c_str());
    }
    std::map<std::string, std::uint64_t> counts;
    std::set<TaskId> tasks;
    std::size_t blocked = 0;
    std::size_t peak_blocked = 0;
    std::set<TaskId> live;
    std::uint64_t first_ns = 0;
    std::uint64_t last_ns = 0;
    std::uint64_t records = 0;
    trace::Record record;
    while (reader.next(&record)) {
      ++records;
      counts[trace::to_string(record.type)]++;
      if (first_ns == 0) first_ns = record.at_ns;
      last_ns = record.at_ns;
      switch (record.type) {
        case trace::RecordType::kBlocked:
          tasks.insert(record.status.task);
          live.insert(record.status.task);
          blocked = live.size();
          peak_blocked = std::max(peak_blocked, blocked);
          break;
        case trace::RecordType::kUnblocked:
          live.erase(record.task);
          break;
        default:
          break;
      }
    }
    std::printf("  records: %llu\n", static_cast<unsigned long long>(records));
    for (const auto& [type, count] : counts) {
      std::printf("    %-17s %llu\n", type.c_str(),
                  static_cast<unsigned long long>(count));
    }
    std::printf("  span: %.3f ms\n",
                static_cast<double>(last_ns - first_ns) / 1e6);
    std::printf("  distinct blocked tasks: %zu (peak concurrent %zu)\n",
                tasks.size(), peak_blocked);
  }
  return 0;
}

// --- dot ---------------------------------------------------------------------

int cmd_dot(int argc, char** argv) {
  GraphModel model = GraphModel::kAuto;
  long at_scan = -1;
  bool at_end = false;
  std::vector<std::string> paths;
  for (int i = 0; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--model" && i + 1 < argc) {
      model = graph_model_from_string(argv[++i]);
    } else if (arg == "--at-scan" && i + 1 < argc) {
      at_scan = std::stol(argv[++i]);
    } else if (arg == "--at-end") {
      at_end = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      paths.push_back(std::move(arg));
    }
  }
  if (paths.empty()) return usage();

  trace::MergedTrace merged(trace::expand_segments(paths));
  auto store = std::make_shared<DependencyState>();
  TaskRegistry registry;
  trace::Replayer replayer(store.get(), &registry);

  // Default stop point: just before the first recorded report — the state
  // the live checker saw when it found the deadlock (the end state of a
  // rescued run is empty and uninteresting).
  long scans_seen = 0;
  for (const trace::TimedRecord& timed : merged.records()) {
    const trace::Record& record = timed.record;
    if (!at_end) {
      if (at_scan >= 0 && record.type == trace::RecordType::kScan &&
          scans_seen++ == at_scan) {
        break;
      }
      if (at_scan < 0 && record.type == trace::RecordType::kReport) break;
    }
    replayer.apply(record);
  }

  std::vector<BlockedStatus> snapshot = trace::merged_snapshot(*store, registry);
  BuiltGraph built = build_graph(snapshot, model);
  std::string dot = graph::to_dot(
      built.graph, "armus_trace",
      [&](graph::Node v) { return built.label(v); });
  std::fputs(dot.c_str(), stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string command = argv[1];
  try {
    if (command == "record") return cmd_record(argc - 2, argv + 2);
    if (command == "verify") return cmd_verify(argc - 2, argv + 2);
    if (command == "predict") return cmd_predict(argc - 2, argv + 2);
    if (command == "stats") return cmd_stats(argc - 2, argv + 2);
    if (command == "dot") return cmd_dot(argc - 2, argv + 2);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "armus-trace %s: %s\n", command.c_str(), e.what());
    return 2;
  }
  return usage();
}
