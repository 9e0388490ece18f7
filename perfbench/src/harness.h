// Shared plumbing of the scalein benchmark: run options, statistics, the
// process resource probes (CPU, peak RSS, affinity), the benchmark's own
// spans, and the result line the benchmark prints last.
#ifndef SCALEIN_PERFBENCH_HARNESS_H_
#define SCALEIN_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

namespace obs = scalein::obs;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Tiny data and operation counts; every check still runs.
  bool smoke = false;
  /// A pass that measures layers another workload bypasses: this workload's
  /// own data size, one set-up and few operations.
  bool side = false;
  /// Run directory (journals, access logs, CSV files, trace output).
  std::string out_dir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;  ///< 0 = not a sampled statistic
};

/// What one workload pass produced.
struct Outcome {
  std::map<std::string, Metric> metrics;  ///< end-to-end
  std::map<std::string, Metric> layers;   ///< per-layer (traced pass only)
  uint64_t attempted = 0;
  uint64_t failed = 0;                ///< failed operations + check mismatches
  std::vector<std::string> failures;  ///< first few, printed
  std::vector<std::string> notes;     ///< observations that are not failures
  uint64_t data_tuples = 0;

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0) {
    metrics[name] = Metric{value, unit, samples};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = Metric{value, unit, 0};
  }
  /// Records one failed operation or failed check.
  void Fail(const std::string& what);
};

// ---- statistics --------------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// p50 of the last tenth of `in_order` over p50 of its first tenth.
double Drift(const std::vector<double>& in_order);

/// Runs are cut into this many consecutive windows of equal operation
/// counts; latency quantiles and throughput are the median over the
/// windows, so a slow spell of the host moves one window, not the result.
constexpr size_t kWindows = 5;
/// Median over the windows of each window's q-quantile.
double WindowedQuantile(const std::vector<double>& in_order, double q);
/// Median over the windows of items completed per second. `done_ns[i]` is
/// when operation i completed (non-decreasing), `items[i]` what it completed.
double WindowedRate(uint64_t start_ns, const std::vector<uint64_t>& done_ns,
                    const std::vector<double>& items);

// ---- clocks and process probes ------------------------------------------

uint64_t NowNs();
/// Process user+sys CPU time in milliseconds (getrusage).
double CpuMs();
/// VmHWM from /proc/self/status, in MB.
double PeakRssMb();
/// Heap bytes currently allocated through malloc (mallinfo2).
double HeapInUseBytes();
/// CPUs in this process's affinity mask (what `nproc` prints).
size_t AffinityCpus();
/// Online CPUs of the host.
size_t OnlineCpus();

/// Median microseconds per call of `fn` over `reps` timed repetitions of
/// `inner` calls each (one untimed warm-up repetition first).
double MedianCallUs(int reps, int inner, const std::function<void(int)>& fn);

// ---- spans ---------------------------------------------------------------

/// The benchmark's own span around one call into a layer. With no global
/// tracer installed it costs one branch. Spans carry "span" and "parent"
/// ids (parent = the enclosing BenchSpan on this thread) and, when given,
/// the request's QueryId, so self times can be computed from the trace.
class BenchSpan {
 public:
  BenchSpan(const char* layer, const char* name, const std::string& qid = "");
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  obs::Tracer* tracer_;
  obs::TraceEvent event_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
};

/// Per-layer self time (span time minus the time its children cover),
/// summed over all spans of the trace, in milliseconds, keyed by category.
std::map<std::string, double> LayerSelfTimesMs(
    const std::vector<obs::TraceEvent>& events);

// ---- run-level helpers ----------------------------------------------------

/// Creates `path` (and parents); false on failure.
bool MakeDirs(const std::string& path);
/// Removes a directory tree (best effort).
void RemoveTree(const std::string& path);
uint64_t FileBytes(const std::string& path);

/// Sets the environment the program reads, so every run starts from the
/// same state whatever the caller's shell exported.
void ClearProgramEnv();

}  // namespace perfbench

#endif  // SCALEIN_PERFBENCH_HARNESS_H_
