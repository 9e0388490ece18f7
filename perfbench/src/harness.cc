#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>

namespace perfbench {

void Outcome::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 20) failures.push_back(what);
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Drift(const std::vector<double>& in_order) {
  const size_t tenth = in_order.size() / 10;
  if (tenth == 0) return 1.0;
  std::vector<double> first(in_order.begin(), in_order.begin() + tenth);
  std::vector<double> last(in_order.end() - tenth, in_order.end());
  const double base = Median(first);
  return base > 0 ? Median(last) / base : 1.0;
}

double WindowedQuantile(const std::vector<double>& in_order, double q) {
  const size_t n = in_order.size();
  if (n < kWindows) return Quantile(in_order, q);
  std::vector<double> per_window;
  for (size_t w = 0; w < kWindows; ++w) {
    per_window.push_back(
        Quantile(std::vector<double>(in_order.begin() + n * w / kWindows,
                                     in_order.begin() + n * (w + 1) / kWindows),
                 q));
  }
  return Median(std::move(per_window));
}

double WindowedRate(uint64_t start_ns, const std::vector<uint64_t>& done_ns,
                    const std::vector<double>& items) {
  const size_t n = done_ns.size();
  const size_t windows = std::min(kWindows, n);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t a = n * w / windows;
    const size_t b = n * (w + 1) / windows;
    const uint64_t from = a == 0 ? start_ns : done_ns[a - 1];
    double count = 0;
    for (size_t i = a; i < b; ++i) count += items[i];
    const double secs = static_cast<double>(done_ns[b - 1] - from) / 1e9;
    per_window.push_back(secs > 0 ? count / secs : 0.0);
  }
  return Median(std::move(per_window));
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double CpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

namespace {

double StatusKb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t klen = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, klen, key) == 0) {
      return std::strtod(line.c_str() + klen, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMb() { return StatusKb("VmHWM:") / 1024.0; }

double HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

size_t AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

size_t OnlineCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

double MedianCallUs(int reps, int inner, const std::function<void(int)>& fn) {
  for (int i = 0; i < inner; ++i) fn(i);
  std::vector<double> per_call;
  per_call.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    const uint64_t start = NowNs();
    for (int i = 0; i < inner; ++i) fn(r * inner + i);
    per_call.push_back(static_cast<double>(NowNs() - start) / 1e3 / inner);
  }
  return Median(std::move(per_call));
}

// ---- spans ---------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_next_span{1};
thread_local uint64_t t_current_span = 0;

std::string ArgString(const obs::TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) {
      if (v.size() >= 2 && v.front() == '"') return v.substr(1, v.size() - 2);
      return v;
    }
  }
  return std::string();
}

}  // namespace

BenchSpan::BenchSpan(const char* layer, const char* name,
                     const std::string& qid)
    : tracer_(obs::Tracer::Global()) {
  if (tracer_ == nullptr) return;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_current_span;
  t_current_span = id_;
  event_.name = name;
  event_.category = layer;
  event_.args.emplace_back("span", std::to_string(id_));
  event_.args.emplace_back("parent", std::to_string(parent_));
  if (!qid.empty()) event_.args.emplace_back("qid", "\"" + qid + "\"");
  event_.start_ns = obs::MonotonicNowNs();
}

BenchSpan::~BenchSpan() {
  if (tracer_ == nullptr) return;
  event_.duration_ns = obs::MonotonicNowNs() - event_.start_ns;
  t_current_span = parent_;
  tracer_->Record(std::move(event_));
}

std::map<std::string, double> LayerSelfTimesMs(
    const std::vector<obs::TraceEvent>& events) {
  const size_t n = events.size();
  std::vector<double> child_ns(n, 0.0);
  // Explicit parents: the benchmark's own spans.
  std::unordered_map<std::string, size_t> by_span_id;
  std::vector<size_t> bench_spans;
  for (size_t i = 0; i < n; ++i) {
    const std::string id = ArgString(events[i], "span");
    if (!id.empty()) {
      by_span_id[id] = i;
      bench_spans.push_back(i);
    }
  }
  std::vector<bool> attributed(n, false);
  for (size_t i = 0; i < n; ++i) {
    const std::string parent = ArgString(events[i], "parent");
    if (parent.empty() || parent == "0") continue;
    auto it = by_span_id.find(parent);
    if (it == by_span_id.end()) continue;
    child_ns[it->second] += static_cast<double>(events[i].duration_ns);
    attributed[i] = true;
  }
  auto contains = [&](size_t outer, size_t inner) {
    const obs::TraceEvent& o = events[outer];
    const obs::TraceEvent& c = events[inner];
    return c.start_ns >= o.start_ns &&
           c.start_ns + c.duration_ns <= o.start_ns + o.duration_ns;
  };
  // Program spans of one request share its QueryId: a span's parent is the
  // shortest span of the same qid that contains it.
  std::unordered_map<std::string, std::vector<size_t>> by_qid;
  for (size_t i = 0; i < n; ++i) {
    std::string qid = ArgString(events[i], "qid");
    if (qid.empty()) qid = ArgString(events[i], "query_id");
    if (!qid.empty()) by_qid[qid].push_back(i);
  }
  for (auto& [qid, members] : by_qid) {
    // Sweep in start order (longer first on ties) with a stack of the spans
    // still open: the innermost open span that covers c is its parent.
    std::sort(members.begin(), members.end(), [&](size_t a, size_t b) {
      if (events[a].start_ns != events[b].start_ns) {
        return events[a].start_ns < events[b].start_ns;
      }
      return events[a].duration_ns > events[b].duration_ns;
    });
    std::vector<size_t> open;
    for (size_t c : members) {
      while (!open.empty() && !contains(open.back(), c)) open.pop_back();
      if (!open.empty() && !attributed[c]) {
        child_ns[open.back()] += static_cast<double>(events[c].duration_ns);
        attributed[c] = true;
      }
      open.push_back(c);
    }
  }
  // Remaining program spans (no qid, or the outermost of their qid) belong
  // to the innermost benchmark span whose interval holds them: the latest
  // starting one that still covers them (benchmark spans nest).
  std::sort(bench_spans.begin(), bench_spans.end(), [&](size_t a, size_t b) {
    return events[a].start_ns < events[b].start_ns;
  });
  for (size_t c = 0; c < n; ++c) {
    if (attributed[c] || by_span_id.count(ArgString(events[c], "span"))) {
      continue;
    }
    auto it = std::upper_bound(
        bench_spans.begin(), bench_spans.end(), events[c].start_ns,
        [&](uint64_t start, size_t o) { return start < events[o].start_ns; });
    for (int steps = 0; it != bench_spans.begin() && steps < 64; ++steps) {
      --it;
      if (contains(*it, c)) {
        child_ns[*it] += static_cast<double>(events[c].duration_ns);
        break;
      }
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < n; ++i) {
    const double self =
        std::max(0.0, static_cast<double>(events[i].duration_ns) - child_ns[i]);
    self_ms[events[i].category] += self / 1e6;
  }
  return self_ms;
}

// ---- run-level helpers ----------------------------------------------------

bool MakeDirs(const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(path, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

void ClearProgramEnv() {
  for (const char* name :
       {"SCALEIN_THREADS", "SCALEIN_COMPILE", "SCALEIN_FAILPOINTS",
        "SCALEIN_DUMP_PATH", "SCALEIN_METRICS_DUMP", "SCALEIN_SLOW_QUERY_MS",
        "SCALEIN_JOURNAL_PATH", "SCALEIN_JOURNAL_MAX_BYTES",
        "SCALEIN_ACCESS_LOG_PATH", "SCALEIN_ACCESS_LOG_MAX_BYTES",
        "SCALEIN_SESSION_ID", "SCALEIN_SERVE_PORT", "SCALEIN_METRICS_PORT"}) {
    ::unsetenv(name);
  }
}

}  // namespace perfbench
