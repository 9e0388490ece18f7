// maintain_mix: incremental maintenance of a fixed set of Q2 feeds under a
// seeded stream of visit update batches (about three insertions per
// deletion). Each operation is one batch through the phase API:
// CollectDeletionCandidates before ApplyUpdate, then IntegrateInsertions and
// RecheckCandidates. A bounded read of one feed follows every batch and must
// equal the maintained answers.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "eval/cq_evaluator.h"
#include "incremental/maintainer.h"
#include "query/parser.h"
#include "util/rng.h"
#include "workload/social_gen.h"
#include "workload/update_gen.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace scalein;

constexpr const char* kQ2 =
    "Q2(p, rn) :- friend(p, id), visit(id, rid), person(id, pn, \"NYC\"), "
    "restr(rid, rn, \"NYC\", \"A\")";
constexpr const char* kQ2Fo =
    "Q2(p, rn) := exists id. exists rid. exists pn. friend(p, id) and "
    "visit(id, rid) and person(id, pn, \"NYC\") and restr(rid, rn, \"NYC\", "
    "\"A\")";

struct Spec {
  uint64_t persons = 0;
  size_t feeds = 32;
  size_t insertions = 24;
  size_t deletions = 8;
  size_t ops = 0;
  size_t warmup_ops = 0;
  size_t setup_reps = 3;
};

Spec MakeSpec(const Options& o) {
  Spec s;
  // Smoke runs shrink the data and the operation counts; side passes keep
  // the data and shrink only the operation counts.
  const bool few = o.smoke || o.side;
  s.persons = o.smoke ? 400 : 5000;
  s.ops = few ? 64 : static_cast<size_t>(300 * o.seconds);
  s.warmup_ops = few ? 4 : 32;
  s.setup_reps = o.smoke ? 2 : o.side ? 1 : 3;
  return s;
}

struct Instance {
  SocialConfig config;
  Schema schema{SocialSchema(false)};
  AccessSchema access;
  Database db{Schema{}};
  Cq q2;
  FoQuery q2_fo;
  std::shared_ptr<const ControllabilityAnalysis> read_analysis;
  std::unique_ptr<IncrementalMaintainer> maintainer;
  std::vector<Binding> feeds;
  std::vector<AnswerSet> answers;
  Rng rng{1};
  double bytes_per_tuple = 0;  ///< heap growth of generate + index build
};

std::unique_ptr<Instance> SetUp(const Spec& spec, const Options& o,
                                Outcome* out) {
  auto inst = std::make_unique<Instance>();
  const double heap0 = HeapInUseBytes();
  inst->config.num_persons = spec.persons;
  inst->config.max_friends_per_person = 50;
  inst->config.num_restaurants = 300;
  inst->config.avg_visits_per_person = 6;
  inst->config.seed = o.seed;
  inst->db = GenerateSocial(inst->config);
  inst->access = SocialAccessSchema(inst->config);
  inst->access.Add("visit", {"id"},
                   4 * inst->config.avg_visits_per_person + 64);
  if (Status s = inst->access.BuildIndexes(&inst->db, inst->schema); !s.ok()) {
    out->Fail("setup: BuildIndexes: " + s.ToString());
    return nullptr;
  }
  inst->bytes_per_tuple = (HeapInUseBytes() - heap0) /
                          static_cast<double>(inst->db.TotalTuples());
  Result<Cq> q = ParseCq(kQ2, &inst->schema);
  Result<FoQuery> fo = ParseFoQuery(kQ2Fo, &inst->schema);
  if (!q.ok() || !fo.ok()) {
    out->Fail("setup: query parse failed");
    return nullptr;
  }
  inst->q2 = *std::move(q);
  inst->q2_fo = *std::move(fo);
  Result<ControllabilityAnalysis> ra = ControllabilityAnalysis::Analyze(
      inst->q2_fo.body, inst->schema, inst->access);
  if (!ra.ok()) {
    out->Fail("setup: read analysis failed");
    return nullptr;
  }
  inst->read_analysis =
      std::make_shared<const ControllabilityAnalysis>(*std::move(ra));
  const Variable p = Variable::Named("p");
  Result<IncrementalMaintainer> m =
      IncrementalMaintainer::Create(inst->q2, inst->schema, inst->access, {p});
  if (!m.ok() || !m->SupportsInsertions("visit") || !m->SupportsDeletions()) {
    out->Fail("setup: Q2 is not maintainable under visit updates");
    return nullptr;
  }
  inst->maintainer = std::make_unique<IncrementalMaintainer>(*std::move(m));
  inst->rng = Rng(o.seed * 40503ULL + 5);
  for (size_t f = 0; f < spec.feeds; ++f) {
    Binding b{{p, Value::Int(static_cast<int64_t>(
                      inst->rng.Uniform(inst->config.num_persons)))}};
    Result<AnswerSet> a = inst->maintainer->InitialAnswers(&inst->db, b);
    if (!a.ok()) {
      out->Fail("setup: InitialAnswers: " + a.status().ToString());
      return nullptr;
    }
    inst->feeds.push_back(std::move(b));
    inst->answers.push_back(*std::move(a));
  }
  return inst;
}

/// Fresh visit insertions plus deletions of distinct existing visits.
Update MakeUpdate(const Spec& spec, Instance* inst) {
  Update u = VisitInsertions(inst->db, inst->config, spec.insertions,
                             &inst->rng);
  const Relation& visit = inst->db.relation("visit");
  std::set<Tuple> chosen;
  for (size_t attempt = 0;
       chosen.size() < spec.deletions && attempt < 64 * spec.deletions;
       ++attempt) {
    Tuple t = ToTuple(visit.TupleAt(inst->rng.Uniform(visit.size())));
    if (chosen.insert(t).second) u.AddDeletion("visit", std::move(t));
  }
  return u;
}

/// The bounded read answers over the head variables the feed's parameter
/// leaves free (rn); the maintained feed holds full head tuples (p, rn).
bool SameFeed(const AnswerSet& read, const Binding& feed,
              const AnswerSet& maintained) {
  if (read.size() != maintained.size()) return false;
  const Value& p = feed.begin()->second;
  for (const Tuple& t : read) {
    Tuple full{p};
    full.insert(full.end(), t.begin(), t.end());
    if (maintained.count(full) == 0) return false;
  }
  return true;
}

struct PhaseTimes {
  double collect_us = 0;
  double integrate_us = 0;
  double recheck_us = 0;
};

/// Maintains every feed under `u` through the phase API.
Status MaintainBatch(Instance* inst, const Update& u, BoundedEvalStats* stats,
                     PhaseTimes* t) {
  const IncrementalMaintainer& m = *inst->maintainer;
  std::vector<AnswerSet> candidates(inst->feeds.size());
  uint64_t t0 = NowNs();
  {
    BenchSpan span("incremental", "collect_deletion_candidates");
    for (size_t f = 0; f < inst->feeds.size(); ++f) {
      Status s = m.CollectDeletionCandidates(&inst->db, u, inst->feeds[f],
                                             &candidates[f], stats);
      if (!s.ok()) return s;
    }
  }
  uint64_t t1 = NowNs();
  {
    BenchSpan span("relational", "apply_update");
    ApplyUpdate(&inst->db, u);
  }
  uint64_t t2 = NowNs();
  {
    BenchSpan span("incremental", "integrate_insertions");
    for (size_t f = 0; f < inst->feeds.size(); ++f) {
      Status s = m.IntegrateInsertions(&inst->db, u, inst->feeds[f],
                                       &inst->answers[f], stats);
      if (!s.ok()) return s;
    }
  }
  uint64_t t3 = NowNs();
  {
    BenchSpan span("incremental", "recheck_candidates");
    for (size_t f = 0; f < inst->feeds.size(); ++f) {
      Status s = m.RecheckCandidates(&inst->db, candidates[f], inst->feeds[f],
                                     &inst->answers[f], stats);
      if (!s.ok()) return s;
    }
  }
  uint64_t t4 = NowNs();
  t->collect_us = static_cast<double>(t1 - t0) / 1e3;
  t->integrate_us = static_cast<double>(t3 - t2) / 1e3;
  t->recheck_us = static_cast<double>(t4 - t3) / 1e3;
  return Status::OK();
}

}  // namespace

Outcome RunMaintainMix(const Options& o, bool traced) {
  Outcome out;
  const Spec spec = MakeSpec(o);
  std::vector<double> setup_s;
  std::unique_ptr<Instance> inst;
  for (size_t rep = 0; rep < spec.setup_reps; ++rep) {
    inst.reset();
    const uint64_t t0 = NowNs();
    inst = SetUp(spec, o, &out);
    if (inst == nullptr) return out;
    for (size_t i = 0; i < spec.warmup_ops; ++i) {
      PhaseTimes t;
      const Update u = MakeUpdate(spec, inst.get());
      if (Status s = MaintainBatch(inst.get(), u, nullptr, &t); !s.ok()) {
        out.Fail("warm-up: " + s.ToString());
        return out;
      }
    }
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  out.data_tuples = inst->db.TotalTuples();

  BoundedEvaluator reader(&inst->db);
  std::vector<double> latency_ms, read_us, collect_us, integrate_us,
      recheck_us, items;
  std::vector<uint64_t> done_ns;
  BoundedEvalStats totals;
  uint64_t update_tuples = 0;
  uint64_t complete = 0;
  const double cpu0 = CpuMs();
  const uint64_t start = NowNs();
  for (size_t i = 0; i < spec.ops; ++i) {
    const Update u = MakeUpdate(spec, inst.get());
    update_tuples += u.TotalTuples();
    items.push_back(static_cast<double>(u.TotalTuples()));
    PhaseTimes t;
    const uint64_t t0 = NowNs();
    const Status s = [&] {
      BenchSpan span("incremental", "maintain_batch");
      return MaintainBatch(inst.get(), u, &totals, &t);
    }();
    latency_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
    if (!s.ok()) {
      out.Fail("maintain: " + s.ToString());
      done_ns.push_back(NowNs());
      continue;
    }
    ++complete;
    collect_us.push_back(t.collect_us);
    integrate_us.push_back(t.integrate_us);
    recheck_us.push_back(t.recheck_us);
    // Bounded read of one feed; it must equal the maintained answers.
    const size_t f = i % inst->feeds.size();
    const uint64_t r0 = NowNs();
    Result<AnswerSet> read = [&] {
      BenchSpan span("core", "bounded_eval.read");
      return reader.Evaluate(inst->q2_fo, *inst->read_analysis,
                             inst->feeds[f]);
    }();
    const uint64_t r1 = NowNs();
    read_us.push_back(static_cast<double>(r1 - r0) / 1e3);
    done_ns.push_back(r1);
    if (!read.ok() || !SameFeed(*read, inst->feeds[f], inst->answers[f])) {
      out.Fail("maintain: bounded read of feed " + std::to_string(f) +
               " differs from its maintained answers after batch " +
               std::to_string(i));
    }
  }
  const double cpu_ms = CpuMs() - cpu0;

  // Maintained feeds must equal a full recomputation.
  CqEvaluator reference(&inst->db);
  for (size_t f = 0; f < inst->feeds.size(); ++f) {
    if (reference.EvaluateFull(inst->q2, inst->feeds[f]) != inst->answers[f]) {
      out.Fail("maintain: feed " + std::to_string(f) +
               " differs from recomputation");
    }
  }

  out.attempted = spec.ops;
  out.Set("setup_s", Median(setup_s), "s");
  out.Set("latency_p50_ms", WindowedQuantile(latency_ms, 0.5), "ms",
          latency_ms.size());
  out.Set("latency_p99_ms", WindowedQuantile(latency_ms, 0.99), "ms",
          latency_ms.size());
  out.Set("throughput_ops_s", WindowedRate(start, done_ns, items), "ops/s",
          update_tuples);
  out.Set("cpu_ms_per_op", cpu_ms / static_cast<double>(spec.ops), "ms",
          spec.ops);
  out.Set("latency_drift", Drift(latency_ms), "ratio", latency_ms.size());
  out.Set("complete_ratio",
          static_cast<double>(complete) / static_cast<double>(spec.ops),
          "ratio", spec.ops);

  if (traced) {
    out.Layer("incremental.collect_us", Median(collect_us), "us");
    out.Layer("incremental.integrate_us", Median(integrate_us), "us");
    out.Layer("incremental.recheck_us", Median(recheck_us), "us");
    out.Layer("incremental.read_us", Median(read_us), "us");
    const double per_tuple_feed =
        static_cast<double>(update_tuples) *
        static_cast<double>(inst->feeds.size());
    out.Layer("incremental.fetches_per_update_tuple",
              static_cast<double>(totals.base_tuples_fetched) / per_tuple_feed,
              "count");
    out.Layer("incremental.bound_per_update_tuple",
              inst->maintainer->FetchBoundPerInsertedTuple("visit"), "count");
    out.Layer("relational.bytes_per_tuple", inst->bytes_per_tuple, "bytes");
    // Insert and erase cost: fresh visits applied, then removed again.
    std::vector<double> insert_us, erase_us;
    for (int rep = 0; rep < 9; ++rep) {
      Update ins = VisitInsertions(inst->db, inst->config, 256, &inst->rng);
      Update del;
      for (const auto& [rel, tuples] : ins.insertions) {
        for (const Tuple& t : tuples) del.AddDeletion(rel, t);
      }
      const double n = static_cast<double>(ins.TotalTuples());
      uint64_t t0 = NowNs();
      {
        BenchSpan span("relational", "insert");
        ApplyUpdate(&inst->db, ins);
      }
      uint64_t t1 = NowNs();
      {
        BenchSpan span("relational", "erase");
        ApplyUpdate(&inst->db, del);
      }
      uint64_t t2 = NowNs();
      insert_us.push_back(static_cast<double>(t1 - t0) / 1e3 / n);
      erase_us.push_back(static_cast<double>(t2 - t1) / 1e3 / n);
    }
    out.Layer("relational.insert_us_per_tuple", Median(insert_us), "us");
    out.Layer("relational.erase_us_per_tuple", Median(erase_us), "us");
  }
  inst.reset();
  out.Set("peak_rss_mb", PeakRssMb(), "MB");
  return out;
}

}  // namespace perfbench
