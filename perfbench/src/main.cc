// The scalein benchmark binary (perfbench/run.py builds and runs it):
//
//   scalein_perfbench --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> --out <run-dir> [--smoke]
//
// --trace 0 runs the workload once and reports its end-to-end metrics.
// --trace 1 runs it plainly, then again with an obs::Tracer installed, and
// reports per-layer metrics: timed calls into each layer the workload loads,
// plus, for the layers it bypasses, the same timings from a side pass of the
// workload that loads them (that workload's data size, few operations). The
// trace is written as Chrome trace JSON to <run-dir>/trace.json. Each pass
// is announced by a "pass: " line, so a crash can be attributed to it. The
// last stdout line is the JSON result.
#include <execinfo.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "io/catalog.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Runner = std::function<Outcome(const Options&, bool)>;

const std::map<std::string, Runner>& Workloads() {
  static const std::map<std::string, Runner> kWorkloads = {
      {"serve_point", RunServePoint},
      {"serve_mixed", RunServeMixed},
      {"batch_fanout", RunBatchFanout},
      {"maintain_mix", RunMaintainMix},
  };
  return kWorkloads;
}

/// The workloads that load each layer metric's layer. A traced run reports
/// such a metric from its own pass only if it is one of them, and otherwise
/// from the side pass of the first one listed. Metrics not listed here
/// (obs.trace_overhead_ratio, the bench.* results) come from the run's own
/// pass.
const std::map<std::string, std::vector<std::string>>& LayerOwners() {
  const std::vector<std::string> point = {"serve_point"};
  const std::vector<std::string> mixed = {"serve_mixed"};
  const std::vector<std::string> serve = {"serve_point", "serve_mixed"};
  const std::vector<std::string> batch = {"batch_fanout"};
  const std::vector<std::string> maintain = {"maintain_mix"};
  static const std::map<std::string, std::vector<std::string>> kOwners = {
      {"serve.port.residual_p50_ms", point},
      {"serve.server.exec_p50_ms", mixed},
      {"serve.server.exec_p99_ms", mixed},
      {"serve.server.queue_wait_p99_ms", mixed},
      {"serve.server.unattributed_p50_ms", point},
      {"serve.admission.decide_us", mixed},
      {"serve.admission.admit_ratio", mixed},
      {"serve.admission.queue_ratio", mixed},
      {"serve.admission.degrade_ratio", mixed},
      {"serve.admission.reject_ratio", mixed},
      {"serve.access_log.append_us", point},
      {"serve.message.encode_us", point},
      {"serve.message.bytes_per_op", point},
      {"io.shell.plan_for_serve_us", serve},
      {"io.shell.eval_for_serve_us", serve},
      {"io.catalog.load_s", point},
      {"io.shell.prepare_serve_s", point},
      {"workload.generate_s", point},
      {"query.parser.parse_us", mixed},
      {"core.analysis_cache.hit_ratio", mixed},
      {"core.analysis_cache.evictions", mixed},
      {"core.analysis_cache.hit_us", mixed},
      {"core.controllability.analyze_us", mixed},
      {"core.bounded_eval.eval_us", batch},
      {"core.embedded.eval_us_per_param", batch},
      {"core.bound_slack_p50", mixed},
      {"exec.compiler.compile_us", mixed},
      {"exec.compiled_hit_ratio", mixed},
      {"exec.vm.eval_us_per_param", batch},
      {"exec.vm.fetches_per_param", batch},
      {"exec.vm.index_lookups_per_param", batch},
      {"exec.governor.overhead_ratio", batch},
      {"par.worker_pool.speedup", batch},
      {"par.worker_pool.tasks_per_op", batch},
      {"relational.index.probe_ns", batch},
      {"relational.insert_us_per_tuple", maintain},
      {"relational.erase_us_per_tuple", maintain},
      {"relational.bytes_per_tuple", maintain},
      {"incremental.collect_us", maintain},
      {"incremental.integrate_us", maintain},
      {"incremental.recheck_us", maintain},
      {"incremental.read_us", maintain},
      {"incremental.fetches_per_update_tuple", maintain},
      {"incremental.bound_per_update_tuple", maintain},
      {"obs.journal.seal_us", point},
      {"obs.journal.append_us", point},
      {"obs.journal.bytes_per_op", point},
      {"obs.workload.observe_export_us_first", serve},
      {"obs.workload.observe_export_us_last", serve},
      {"bench.gen_late_p99_ms", serve},
  };
  return kOwners;
}

/// The pass now running, for the fatal-signal handler.
char g_pass[128] = "start-up";

/// Announces a pass on stdout (run.py names the last one when the process
/// dies) and records it for the fatal-signal handler.
void BeginPass(const std::string& name) {
  std::snprintf(g_pass, sizeof(g_pass), "%s", name.c_str());
  std::printf("pass: %s\n", g_pass);
  std::fflush(stdout);
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  return "\"" + obs::JsonEscape(s) + "\"";
}

void PrintMetrics(const char* title, const std::map<std::string, Metric>& m) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : m) {
    if (metric.samples > 0) {
      std::printf("  %-44s %14.6g %-6s (n=%llu)\n", name.c_str(), metric.value,
                  metric.unit.c_str(),
                  static_cast<unsigned long long>(metric.samples));
    } else {
      std::printf("  %-44s %14.6g %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    }
  }
}

/// A crash in the program (ROADMAP item 1 names a known one) is reported,
/// not hidden: the backtrace goes to stderr and the signal is re-raised, so
/// run.py sees the process die and reports the run as failed.
extern "C" void OnFatalSignal(int sig) {
  void* frames[64];
  const int n = backtrace(frames, 64);
  const char header[] = "scalein_perfbench: fatal signal in pass ";
  (void)!write(STDERR_FILENO, header, sizeof(header) - 1);
  (void)!write(STDERR_FILENO, g_pass, strnlen(g_pass, sizeof(g_pass)));
  (void)!write(STDERR_FILENO, "; backtrace:\n", 13);
  backtrace_symbols_fd(frames, n, STDERR_FILENO);
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: scalein_perfbench --workload "
               "<serve_point|serve_mixed|batch_fanout|maintain_mix> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir> [--smoke]\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::atoi(value());
    } else if (arg == "--trace") {
      o.trace = std::strcmp(value(), "1") == 0;
    } else if (arg == "--out") {
      o.out_dir = value();
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  auto it = Workloads().find(o.workload);
  if (it == Workloads().end()) return Usage("unknown workload");
  if (o.seconds < 1) return Usage("--seconds must be at least 1");
  if (o.out_dir.empty()) return Usage("--out is required");
  ClearProgramEnv();
  std::signal(SIGPIPE, SIG_IGN);
  for (int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    std::signal(sig, OnFatalSignal);
  }
  RemoveTree(o.out_dir);
  if (!MakeDirs(o.out_dir)) return Usage("cannot create --out directory");

  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::printf("scalein benchmark: workload=%s seed=%llu seconds=%d trace=%d%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "");
  std::printf("env: nproc_online=%zu affinity_cpus=%zu compiler=\"%s\" "
              "build_type=%s git_sha=%s\n",
              OnlineCpus(), AffinityCpus(), __VERSION__, PERFBENCH_BUILD_TYPE,
              sha != nullptr && sha[0] != '\0' ? sha : "unknown");
  std::fflush(stdout);

  Options plain_opts = o;
  plain_opts.out_dir = o.out_dir + "/plain";
  BeginPass(o.workload + " (plain)");
  Outcome plain = it->second(plain_opts, /*traced=*/false);
  std::printf("data: %llu tuples\n",
              static_cast<unsigned long long>(plain.data_tuples));
  uint64_t attempted = plain.attempted;
  uint64_t failed = plain.failed;
  std::vector<std::string> failures = plain.failures;
  // These are printed with the end-to-end metrics but reach the result line
  // only from the traced run, prefixed "bench.": on a shared 4-vCPU host
  // they move by more than any gate bound from one run to the next.
  const char* const kUngated[] = {"latency_p99_ms", "latency_drift",
                                  "throughput_ops_s"};
  std::map<std::string, Metric> reported = plain.metrics;
  for (const char* name : kUngated) reported.erase(name);
  const double failed_ratio =
      plain.attempted > 0 ? static_cast<double>(plain.failed) /
                                static_cast<double>(plain.attempted)
                          : 1.0;
  PrintMetrics("end-to-end (plain run):", plain.metrics);
  for (const std::string& note : plain.notes) {
    std::printf("note: %s\n", note.c_str());
  }
  std::printf("  %-44s %14.6g ratio (n=%llu)\n", "failed_ratio", failed_ratio,
              static_cast<unsigned long long>(plain.attempted));

  if (o.trace) {
    obs::Tracer tracer;
    obs::Tracer::InstallGlobal(&tracer);
    Options traced_opts = o;
    traced_opts.out_dir = o.out_dir + "/traced";
    BeginPass(o.workload + " (traced)");
    Outcome traced = it->second(traced_opts, /*traced=*/true);
    attempted += traced.attempted;
    failed += traced.failed;
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
    // Layers this workload bypasses: a side pass of each workload that loads
    // them.
    std::map<std::string, Outcome> sides;
    for (const auto& [name, runner] : Workloads()) {
      if (name == o.workload) continue;
      Options side = o;
      side.side = true;
      side.out_dir = o.out_dir + "/side-" + name;
      BeginPass(name + " (traced side pass for layers " + o.workload +
                " bypasses)");
      Outcome s = runner(side, /*traced=*/true);
      attempted += s.attempted;
      failed += s.failed;
      for (const std::string& f : s.failures) {
        failures.push_back(name + " side pass: " + f);
      }
      sides.emplace(name, std::move(s));
    }
    std::map<std::string, Metric> layers = traced.layers;
    std::map<std::string, std::string> borrowed;  // metric -> workload
    for (const auto& [lname, owners] : LayerOwners()) {
      if (std::find(owners.begin(), owners.end(), o.workload) != owners.end()) {
        continue;
      }
      auto side = sides.find(owners.front());
      if (side == sides.end()) continue;
      auto metric = side->second.layers.find(lname);
      if (metric == side->second.layers.end()) continue;
      layers[lname] = metric->second;
      borrowed[lname] = owners.front();
    }
    obs::Tracer::InstallGlobal(nullptr);
    for (const char* name : kUngated) {
      Metric m = traced.metrics[name];
      m.samples = 0;
      layers[std::string("bench.") + name] = m;
    }
    const double plain_p50 = plain.metrics["latency_p50_ms"].value;
    layers["obs.trace_overhead_ratio"] =
        Metric{plain_p50 > 0
                   ? traced.metrics["latency_p50_ms"].value / plain_p50
                   : 1.0,
               "ratio", 0};
    const std::vector<obs::TraceEvent> events = tracer.events();
    const std::string trace_path = o.out_dir + "/trace.json";
    if (!scalein::WriteStringToFile(trace_path, tracer.ToChromeTraceJson())
             .ok()) {
      ++failed;
      failures.push_back("cannot write " + trace_path);
    }
    std::printf("trace: %zu spans -> %s\n", events.size(), trace_path.c_str());
    std::printf("layer self time (ms, whole traced run):\n");
    for (const auto& [layer, ms] : LayerSelfTimesMs(events)) {
      std::printf("  %-24s %12.3f\n", layer.c_str(), ms);
    }
    PrintMetrics("per-layer (traced run):", layers);
    std::printf("measured on a side pass of the workload that loads them:\n");
    for (const auto& [lname, workload] : borrowed) {
      std::printf("  %-44s %s\n", lname.c_str(), workload.c_str());
    }
    reported = layers;
  }

  for (const std::string& f : failures) std::printf("FAILED: %s\n", f.c_str());
  if (failed > failures.size()) {
    std::printf("FAILED: ... %llu more\n",
                static_cast<unsigned long long>(failed - failures.size()));
  }
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : reported) {
    if (!first) json += ", ";
    first = false;
    json += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  RemoveTree(plain_opts.out_dir);
  return 0;
}
