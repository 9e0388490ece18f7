// batch_fanout: the governed batch API with no server. A dated social
// database, sharded, with the worker pool at nproc lanes. Each operation is
// one governed batch of parameters: friend-of-friend FO queries through the
// compiled VM (EvaluateBatch), or the embedded Q3 chase of Proposition 4.5
// (EvaluateEmbeddedBatch).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "exec/compiler.h"
#include "exec/vm.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "util/rng.h"
#include "workload/social_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace scalein;

constexpr const char* kFof =
    "FOF(p, g) := exists f. friend(p, f) and friend(f, g)";
constexpr const char* kQ3 =
    "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
    "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")";
constexpr size_t kShards = 8;

struct Spec {
  uint64_t persons = 0;
  size_t batch = 16;     ///< parameters per operation: four per lane at 4 lanes
  size_t ops = 0;
  size_t warmup_ops = 0;
  size_t setup_reps = 3;
  size_t parity_checks = 0;  ///< operations re-run at width 1 and interpreted
};

Spec MakeSpec(const Options& o) {
  Spec s;
  // Smoke runs shrink the data and the operation counts; side passes keep
  // the data and shrink only the operation counts.
  const bool few = o.smoke || o.side;
  s.persons = o.smoke ? 500 : 30000;
  s.ops = few ? 48 : static_cast<size_t>(100 * o.seconds);
  s.warmup_ops = few ? 4 : 16;
  s.setup_reps = o.smoke ? 2 : o.side ? 1 : 3;
  s.parity_checks = few ? 16 : 24;
  return s;
}

/// Everything one set-up builds: the data and the compiled plans.
struct Instance {
  SocialConfig config;
  Schema schema{SocialSchema(true)};
  AccessSchema access;
  Database db{Schema{}};
  FoQuery fof;
  std::shared_ptr<const ControllabilityAnalysis> fof_analysis;
  std::shared_ptr<const EmbeddedCqAnalysis> q3_analysis;
  std::shared_ptr<const exec::CompiledProgram> fof_program;
  std::shared_ptr<const exec::CompiledProgram> q3_program;
  double fof_bound = 0;
  double q3_bound = 0;
};

std::unique_ptr<Instance> SetUp(const Spec& spec, const Options& o,
                                Outcome* out) {
  auto inst = std::make_unique<Instance>();
  inst->config.num_persons = spec.persons;
  inst->config.max_friends_per_person = 50;
  inst->config.num_restaurants = 200;
  inst->config.avg_visits_per_person = 5;
  inst->config.num_cities = 2;
  inst->config.num_years = 1;
  inst->config.dated_visits = true;
  inst->config.seed = o.seed;
  inst->db = GenerateSocial(inst->config);
  inst->access = SocialAccessSchema(inst->config);
  if (Status s = inst->access.BuildIndexes(&inst->db, inst->schema); !s.ok()) {
    out->Fail("setup: BuildIndexes: " + s.ToString());
    return nullptr;
  }
  for (const char* rel : {"friend", "person", "visit"}) {
    inst->db.relation(rel).Shard(kShards);
  }
  Result<FoQuery> fof = ParseFoQuery(kFof, &inst->schema);
  Result<Cq> q3 = ParseCq(kQ3, &inst->schema);
  if (!fof.ok() || !q3.ok()) {
    out->Fail("setup: query parse failed");
    return nullptr;
  }
  inst->fof = *std::move(fof);
  const Variable p = Variable::Named("p");
  Result<ControllabilityAnalysis> fa = ControllabilityAnalysis::Analyze(
      inst->fof.body, inst->schema, inst->access);
  Result<EmbeddedCqAnalysis> qa = EmbeddedCqAnalysis::Analyze(
      *q3, inst->schema, inst->access, {p, Variable::Named("yy")});
  if (!fa.ok() || !qa.ok() || !qa->IsScaleIndependent()) {
    out->Fail("setup: analysis failed");
    return nullptr;
  }
  inst->fof_analysis =
      std::make_shared<const ControllabilityAnalysis>(*std::move(fa));
  inst->q3_analysis = std::make_shared<const EmbeddedCqAnalysis>(*std::move(qa));
  Result<double> bound = inst->fof_analysis->StaticFetchBound({p});
  inst->fof_bound = bound.ok() ? *bound : -1;
  inst->q3_bound = inst->q3_analysis->StaticFetchBound();
  auto fp = exec::CompilePlain(inst->fof, inst->fof_analysis, {p});
  auto qp = exec::CompileEmbedded(inst->q3_analysis);
  if (!fp.ok() || !qp.ok()) {
    out->Fail("setup: compile failed");
    return nullptr;
  }
  inst->fof_program = *fp;
  inst->q3_program = *qp;
  exec::PrebuildCompiledIndexes(inst->db, *inst->fof_program);
  exec::PrebuildCompiledIndexes(inst->db, *inst->q3_program);
  return inst;
}

/// Operation i: kind (every eighth is embedded Q3) and its parameters.
struct Op {
  bool embedded = false;
  std::vector<Binding> params;
};

std::vector<Op> MakeOps(const Spec& spec, const Instance& inst, uint64_t seed,
                        uint64_t salt, size_t n) {
  Rng rng(seed * 2654435761ULL + salt);
  const Variable p = Variable::Named("p");
  const Variable yy = Variable::Named("yy");
  std::vector<Op> ops(n);
  for (size_t i = 0; i < n; ++i) {
    ops[i].embedded = i % 8 == 7;
    for (size_t k = 0; k < spec.batch; ++k) {
      const Value person =
          Value::Int(static_cast<int64_t>(rng.Uniform(spec.persons)));
      if (ops[i].embedded) {
        ops[i].params.push_back(
            {{p, person},
             {yy, Value::Int(static_cast<int64_t>(inst.config.first_year))}});
      } else {
        ops[i].params.push_back({{p, person}});
      }
    }
  }
  return ops;
}

std::vector<Result<AnswerSet>> RunVm(const exec::CompiledEvaluator& vm,
                                     const Instance& inst, const Op& op,
                                     BoundedEvalStats* stats) {
  return op.embedded
             ? vm.EvaluateEmbeddedBatch(*inst.q3_program, op.params, stats)
             : vm.EvaluateBatch(*inst.fof_program, op.params, stats);
}

std::vector<Result<AnswerSet>> RunInterpreter(const Instance& inst,
                                              const Op& op,
                                              BoundedEvalStats* stats) {
  BoundedEvaluator interp(const_cast<Database*>(&inst.db));
  return op.embedded
             ? interp.EvaluateEmbeddedBatch(*inst.q3_analysis, op.params, stats)
             : interp.EvaluateBatch(inst.fof, *inst.fof_analysis, op.params,
                                    stats);
}

bool SameResults(const std::vector<Result<AnswerSet>>& a,
                 const std::vector<Result<AnswerSet>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].ok() != b[i].ok()) return false;
    if (a[i].ok() && *a[i] != *b[i]) return false;
  }
  return true;
}

double BatchMs(const exec::CompiledEvaluator& vm, const Instance& inst,
               const std::vector<Op>& ops) {
  const uint64_t t0 = NowNs();
  for (const Op& op : ops) (void)RunVm(vm, inst, op, nullptr);
  return static_cast<double>(NowNs() - t0) / 1e6;
}

void BatchLayers(Instance* inst, const std::vector<Op>& ops,
                 const BoundedEvalStats& totals, uint64_t tasks, size_t lanes,
                 Outcome* out) {
  par::WorkerPool& pool = par::WorkerPool::Global();
  double params = 0;
  for (const Op& op : ops) params += static_cast<double>(op.params.size());
  out->Layer("exec.vm.fetches_per_param",
             static_cast<double>(totals.base_tuples_fetched) / params, "count");
  out->Layer("exec.vm.index_lookups_per_param",
             static_cast<double>(totals.index_lookups) / params, "count");
  out->Layer("par.worker_pool.tasks_per_op",
             static_cast<double>(tasks) / static_cast<double>(ops.size()),
             "count");

  // Single-parameter calls on one lane, interpreter and VM.
  pool.Resize(1);
  std::vector<Binding> fof_params, q3_params;
  for (const Op& op : ops) {
    auto& dst = op.embedded ? q3_params : fof_params;
    // An embedded Q3 chase costs about ten friend-of-friend evaluations.
    const size_t cap = op.embedded ? 16 : 64;
    if (dst.size() < cap) {
      dst.insert(dst.end(), op.params.begin(),
                 op.params.begin() + std::min(op.params.size(), cap - dst.size()));
    }
  }
  exec::CompiledEvaluator vm(&inst->db);
  BoundedEvaluator interp(&inst->db);
  out->Layer("exec.vm.eval_us_per_param",
             MedianCallUs(9, static_cast<int>(fof_params.size()),
                          [&](int i) {
                            BenchSpan span("exec", "vm.evaluate");
                            (void)vm.Evaluate(*inst->fof_program,
                                              fof_params[static_cast<size_t>(i) %
                                                         fof_params.size()]);
                          }),
             "us");
  out->Layer("core.bounded_eval.eval_us",
             MedianCallUs(9, static_cast<int>(fof_params.size()),
                          [&](int i) {
                            BenchSpan span("core", "bounded_eval.evaluate");
                            (void)interp.Evaluate(
                                inst->fof, *inst->fof_analysis,
                                fof_params[static_cast<size_t>(i) %
                                           fof_params.size()]);
                          }),
             "us");
  out->Layer("core.embedded.eval_us_per_param",
             MedianCallUs(9, static_cast<int>(q3_params.size()),
                          [&](int i) {
                            BenchSpan span("core", "embedded.evaluate");
                            (void)interp.EvaluateEmbedded(
                                *inst->q3_analysis,
                                q3_params[static_cast<size_t>(i) %
                                          q3_params.size()]);
                          }),
             "us");

  // Index probes on the keys this workload looks up.
  const HashIndex& index = inst->db.relation("friend").EnsureIndex({0});
  std::vector<Tuple> keys;
  for (const Binding& b : fof_params) keys.push_back(Tuple{b.begin()->second});
  size_t hits = 0;
  out->Layer("relational.index.probe_ns",
             1000.0 * MedianCallUs(9, 2000,
                                   [&](int i) {
                                     hits += index.Lookup(keys[static_cast<size_t>(
                                                              i) %
                                                          keys.size()]) !=
                                             nullptr;
                                   }),
             "ns");
  if (hits == 0) out->Fail("batch: index probes found no friend lists");

  // Whole-batch ratios, alternating the two sides so drift hits both.
  const std::vector<Op> sample(ops.begin(),
                               ops.begin() + std::min<size_t>(ops.size(), 16));
  exec::CompiledEvaluator governed(&inst->db);
  exec::GovernorLimits limits;
  limits.fetch_budget = 1ULL << 60;
  governed.set_limits(limits);
  std::vector<double> speedup, overhead;
  for (int trial = 0; trial < 5; ++trial) {
    pool.Resize(1);
    const double one_lane = [&] {
      BenchSpan span("par", "worker_pool.batch_width_1");
      return BatchMs(governed, *inst, sample);
    }();
    pool.Resize(lanes);
    const double all_lanes = [&] {
      BenchSpan span("par", "worker_pool.batch_width_n");
      return BatchMs(governed, *inst, sample);
    }();
    const double ungoverned = [&] {
      BenchSpan span("exec", "governor.ungoverned_batch");
      return BatchMs(vm, *inst, sample);
    }();
    speedup.push_back(one_lane / all_lanes);
    overhead.push_back(all_lanes / ungoverned);
  }
  out->Layer("par.worker_pool.speedup", Median(speedup), "ratio");
  out->Layer("exec.governor.overhead_ratio", Median(overhead), "ratio");
}

}  // namespace

Outcome RunBatchFanout(const Options& o, bool traced) {
  Outcome out;
  const Spec spec = MakeSpec(o);
  const size_t lanes = AffinityCpus();
  par::WorkerPool& pool = par::WorkerPool::Global();
  pool.Resize(lanes);

  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (size_t rep = 0; rep < spec.setup_reps; ++rep) {
    inst.reset();
    const uint64_t t0 = NowNs();
    inst = SetUp(spec, o, &out);
    if (inst == nullptr) return out;
    exec::CompiledEvaluator warm(&inst->db);
    for (const Op& op : MakeOps(spec, *inst, o.seed, 1, spec.warmup_ops)) {
      (void)RunVm(warm, *inst, op, nullptr);
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  out.data_tuples = inst->db.TotalTuples();
  const std::vector<Op> ops = MakeOps(spec, *inst, o.seed, 2, spec.ops);

  exec::CompiledEvaluator vm(&inst->db);
  exec::GovernorLimits limits;
  limits.fetch_budget = 1ULL << 60;  // armed, never reached
  vm.set_limits(limits);

  const size_t stride = std::max<size_t>(1, ops.size() / spec.parity_checks);
  std::vector<std::vector<Result<AnswerSet>>> kept;
  std::vector<BoundedEvalStats> kept_stats;
  std::vector<double> latency_ms, items;
  std::vector<uint64_t> done_ns;
  latency_ms.reserve(ops.size());
  BoundedEvalStats totals;
  uint64_t complete = 0;
  double params = 0;
  const uint64_t tasks0 = pool.tasks_executed();
  const double cpu0 = CpuMs();
  const uint64_t start = NowNs();
  for (size_t i = 0; i < ops.size(); ++i) {
    BoundedEvalStats stats;
    const uint64_t t0 = NowNs();
    std::vector<Result<AnswerSet>> results = [&] {
      BenchSpan span("exec", ops[i].embedded ? "vm.embedded_batch"
                                             : "vm.evaluate_batch");
      return RunVm(vm, *inst, ops[i], &stats);
    }();
    const uint64_t t1 = NowNs();
    latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    done_ns.push_back(t1);
    items.push_back(static_cast<double>(ops[i].params.size()));
    params += static_cast<double>(ops[i].params.size());
    bool ok = true;
    for (const Result<AnswerSet>& r : results) ok &= r.ok();
    const double bound =
        (ops[i].embedded ? inst->q3_bound : inst->fof_bound) *
        static_cast<double>(ops[i].params.size());
    if (!ok) {
      out.Fail("batch: an evaluation failed");
    } else if (static_cast<double>(stats.base_tuples_fetched) > bound) {
      out.Fail("batch: fetched " + std::to_string(stats.base_tuples_fetched) +
               " > static bound " + std::to_string(bound));
    } else {
      ++complete;
    }
    totals.Merge(stats);
    if (i % stride == 0) {
      kept.push_back(std::move(results));
      kept_stats.push_back(stats);
    }
  }
  const double cpu_ms = CpuMs() - cpu0;
  const uint64_t tasks = pool.tasks_executed() - tasks0;

  // Parity: the same batches at pool width 1, through the VM and through the
  // interpreter, must give identical answers and fetch counts.
  pool.Resize(1);
  for (size_t k = 0; k < kept.size(); ++k) {
    const Op& op = ops[k * stride];
    BoundedEvalStats vs, is;
    const auto one_lane = RunVm(vm, *inst, op, &vs);
    const auto interpreted = RunInterpreter(*inst, op, &is);
    if (!SameResults(kept[k], one_lane) ||
        vs.base_tuples_fetched != kept_stats[k].base_tuples_fetched ||
        vs.index_lookups != kept_stats[k].index_lookups) {
      out.Fail("batch: width-1 run differs from width-" +
               std::to_string(lanes) + " run for operation " +
               std::to_string(k * stride));
    }
    if (!SameResults(kept[k], interpreted) ||
        is.base_tuples_fetched != kept_stats[k].base_tuples_fetched) {
      out.Fail("batch: interpreter differs from VM for operation " +
               std::to_string(k * stride));
    }
  }
  pool.Resize(lanes);

  out.attempted = ops.size();
  out.Set("setup_s", Median(setup_s), "s");
  out.Set("latency_p50_ms", WindowedQuantile(latency_ms, 0.5), "ms",
          latency_ms.size());
  out.Set("latency_p99_ms", WindowedQuantile(latency_ms, 0.99), "ms",
          latency_ms.size());
  out.Set("throughput_ops_s", WindowedRate(start, done_ns, items), "ops/s",
          static_cast<uint64_t>(params));
  out.Set("cpu_ms_per_op", cpu_ms / static_cast<double>(ops.size()), "ms",
          ops.size());
  out.Set("latency_drift", Drift(latency_ms), "ratio", latency_ms.size());
  out.Set("complete_ratio",
          static_cast<double>(complete) / static_cast<double>(ops.size()),
          "ratio", ops.size());
  if (traced) BatchLayers(inst.get(), ops, totals, tasks, lanes, &out);
  inst.reset();
  pool.Resize(1);
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
