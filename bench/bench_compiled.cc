// Experiment E9: register-bytecode compilation of bounded plans.
//
// The claim the sidecar pins down for scripts/bench_regress.py: executing a
// compiled bounded plan (exec/vm.h) beats interpreting the §4 option tree
// (core/bounded_eval.h) on the repeated-query hot path, with byte-identical
// answers and certificates. The gate enforces:
//   compiled.plain_speedup    >= 1.5   (Q1/Q2 FO hot loop — the serve path)
//   compiled.embedded_speedup >= 1.0   (Q3 chase: must never be slower than
//                                       the option-tree chase it replaced)
//   compiled.certs_equal      == 1     (plain leg: sealed certificate
//                                       payloads of both engines match)
//
// The VM is the only chase engine, so the embedded gate compares it with a
// recorded reference instead of a live interpreter run. The plain VM time is
// this host's speed yardstick:
//   embedded_speedup = kChaseInterpOverPlainVm · plain_vm_ms / embedded_vm_ms
// and the chase must fetch exactly kChaseFetched tuples, with answers equal
// to CqEvaluator's. Timings are medians over kTrials interleaved trials.

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "eval/cq_evaluator.h"
#include "exec/compiler.h"
#include "exec/vm.h"
#include "obs/journal.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "query/printer.h"
#include "workload/social_gen.h"

using namespace scalein;
using bench::Header;
using bench::MeasureMs;

namespace {

constexpr const char* kQ1 =
    "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")";
// Friend-of-friend: a 50x50 frontier per parameter, where per-tuple
// interpretive overhead (map bindings, set inserts) dominates — the workload
// the bytecode VM exists for.
constexpr const char* kQ2 =
    "Q2(p, fof) := exists f. friend(p, f) and friend(f, fof)";
constexpr const char* kQ3 =
    "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
    "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")";
constexpr size_t kParams = 192;
constexpr int kTrials = 7;

// Provenance of the embedded gate's reference (recorded at commit 3fbdc38,
// the last with the option-tree chase, RelWithDebInfo, g++ 12.2, 4-core
// x86-64 Linux host): this file's trial loop with the Q3 leg timing
// BoundedEvaluator's interpreter chase instead of the VM, run 5 times.
// kChaseInterpOverPlainVm is the median over those runs of each run's
// median per-trial (Q3 interpreter ms / Q1+Q2 plain VM ms); kChaseFetched
// is the Q3 fetch total, identical in every run (the data is seeded).
constexpr double kChaseInterpOverPlainVm = 6.43;
constexpr uint64_t kChaseFetched = 597690;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Seals a certificate from one evaluation's stats under a fixed identity;
/// payload equality across engines is the byte-identity check CI gates on.
std::string SealedPayload(const char* query, const BoundedEvalStats& stats) {
  obs::AccessCertificate cert;
  cert.query_fingerprint = "bench-compiled";
  cert.query_id = "bench";
  cert.query_text = query;
  cert.static_bound = stats.static_bound;
  cert.actual_fetches = stats.base_tuples_fetched;
  cert.index_lookups = stats.index_lookups;
  for (const exec::OpCounters& op : stats.ops) {
    obs::CertOp co;
    co.label = op.label;
    co.rows_out = op.rows_out;
    co.tuples_fetched = op.tuples_fetched;
    co.index_lookups = op.index_lookups;
    co.static_bound = op.static_bound;
    cert.ops.push_back(std::move(co));
  }
  obs::SealCertificate(&cert);
  return obs::CertificatePayload(cert);
}

}  // namespace

int main() {
  Header("E9: bytecode compilation of bounded plans",
         "§4 option trees / Prop 4.5 chase plans lowered to register bytecode",
         "compiled execution >= 1.5x faster than interpretation with "
         "byte-identical answers, accounting, and sealed certificates");

  bench::JsonReport report("compiled");
  par::WorkerPool::Global().Resize(1);  // isolate per-tuple overhead

  // ---- Plain FO path: Q1 + Q2 over the Example 1.1 social workload. ----
  SocialConfig config;
  config.num_persons = 30000;
  config.max_friends_per_person = 50;
  config.num_restaurants = 200;
  config.avg_visits_per_person = 0;
  Schema schema = SocialSchema(false);
  Database db = GenerateSocial(config);
  AccessSchema access = SocialAccessSchema(config);
  SI_CHECK(access.BuildIndexes(&db, schema).ok());

  Variable p = Variable::Named("p");
  std::vector<Binding> params;
  params.reserve(kParams);
  for (size_t i = 0; i < kParams; ++i) {
    params.push_back({{p, Value::Int(static_cast<int64_t>(
                              (i * 131) % config.num_persons))}});
  }

  BoundedEvaluator interp(&db);
  exec::CompiledEvaluator vm(&db);
  bool certs_equal = true;
  uint64_t plain_fetched = 0;
  double plain_bound = 0.0;

  struct PlainLeg {
    std::string name;
    FoQuery q;
    std::shared_ptr<const ControllabilityAnalysis> analysis;
    std::shared_ptr<const exec::CompiledProgram> program;
    uint64_t fetched = 0;
  };
  std::vector<PlainLeg> legs;
  for (const char* text : {kQ1, kQ2}) {
    Result<FoQuery> q = ParseFoQuery(text, &schema);
    SI_CHECK(q.ok());
    Result<ControllabilityAnalysis> analyzed =
        ControllabilityAnalysis::Analyze(q->body, schema, access);
    SI_CHECK(analyzed.ok());
    auto analysis = std::make_shared<const ControllabilityAnalysis>(
        *std::move(analyzed));
    Result<std::shared_ptr<const exec::CompiledProgram>> program =
        exec::CompilePlain(*q, analysis, {p});
    SI_CHECK(program.ok());
    exec::PrebuildCompiledIndexes(db, **program);

    // Cross-check answers + certificate payloads for every parameter first.
    PlainLeg leg{q->name, *q, analysis, *program, 0};
    for (const Binding& b : params) {
      BoundedEvalStats is, vs;
      is.capture_ops = true;
      vs.capture_ops = true;
      Result<AnswerSet> ia = interp.Evaluate(*q, *analysis, b, &is);
      Result<AnswerSet> va = vm.Evaluate(**program, b, &vs);
      SI_CHECK(ia.ok() && va.ok());
      SI_CHECK(*ia == *va);
      certs_equal &= SealedPayload(text, is) == SealedPayload(text, vs);
      leg.fetched += is.base_tuples_fetched;
    }
    plain_fetched += leg.fetched;
    Result<double> bound = analysis->StaticFetchBound({p});
    SI_CHECK(bound.ok());
    plain_bound += *bound * static_cast<double>(kParams);
    legs.push_back(std::move(leg));
  }

  // ---- Embedded path: the Q3 Proposition 4.5 chase. ----
  SocialConfig dated;
  dated.num_persons = 20000;
  dated.max_friends_per_person = 30;
  dated.num_restaurants = 200;
  dated.avg_visits_per_person = 20;
  dated.num_cities = 2;
  dated.num_years = 1;
  dated.dated_visits = true;
  Schema dated_schema = SocialSchema(true);
  Database dated_db = GenerateSocial(dated);
  AccessSchema dated_access = SocialAccessSchema(dated);
  SI_CHECK(dated_access.BuildIndexes(&dated_db, dated_schema).ok());

  Result<Cq> q3 = ParseCq(kQ3, &dated_schema);
  SI_CHECK(q3.ok());
  Variable yy = Variable::Named("yy");
  Result<EmbeddedCqAnalysis> eanalyzed =
      EmbeddedCqAnalysis::Analyze(*q3, dated_schema, dated_access, {p, yy});
  SI_CHECK(eanalyzed.ok());
  auto eanalysis =
      std::make_shared<const EmbeddedCqAnalysis>(*std::move(eanalyzed));
  SI_CHECK(eanalysis->IsScaleIndependent());
  Result<std::shared_ptr<const exec::CompiledProgram>> eprogram =
      exec::CompileEmbedded(eanalysis);
  SI_CHECK(eprogram.ok());
  exec::PrebuildCompiledIndexes(dated_db, **eprogram);

  std::vector<Binding> eparams;
  eparams.reserve(kParams);
  for (size_t i = 0; i < kParams; ++i) {
    eparams.push_back(
        {{p, Value::Int(static_cast<int64_t>((i * 131) % dated.num_persons))},
         {yy, Value::Int(static_cast<int64_t>(dated.first_year))}});
  }

  exec::CompiledEvaluator evm(&dated_db);
  CqEvaluator reference(&dated_db);
  uint64_t embedded_fetched = 0;
  for (const Binding& b : eparams) {
    BoundedEvalStats vs;
    Result<AnswerSet> va = evm.EvaluateEmbedded(**eprogram, b, &vs);
    SI_CHECK(va.ok());
    SI_CHECK(*va == reference.Evaluate(*q3, b));
    embedded_fetched += vs.base_tuples_fetched;
  }
  SI_CHECK_MSG(embedded_fetched == kChaseFetched,
               "Q3 chase fetch total differs from the recorded reference");

  // ---- Interleaved timing trials. ----
  std::vector<double> plain_interp_ms(kTrials), plain_vm_ms(kTrials),
      embedded_vm_ms(kTrials), plain_ratio(kTrials), chase_ratio(kTrials);
  std::vector<std::vector<double>> leg_interp_ms(legs.size()),
      leg_vm_ms(legs.size());
  for (int t = 0; t < kTrials; ++t) {
    for (size_t li = 0; li < legs.size(); ++li) {
      const PlainLeg& leg = legs[li];
      const double im = MeasureMs([&] {
        for (const Binding& b : params) {
          (void)interp.Evaluate(leg.q, *leg.analysis, b);
        }
      });
      const double vmm = MeasureMs([&] {
        for (const Binding& b : params) (void)vm.Evaluate(*leg.program, b);
      });
      leg_interp_ms[li].push_back(im);
      leg_vm_ms[li].push_back(vmm);
      plain_interp_ms[t] += im;
      plain_vm_ms[t] += vmm;
    }
    embedded_vm_ms[t] = MeasureMs([&] {
      for (const Binding& b : eparams) {
        (void)evm.EvaluateEmbedded(**eprogram, b);
      }
    });
    plain_ratio[t] = plain_interp_ms[t] / plain_vm_ms[t];
    chase_ratio[t] = embedded_vm_ms[t] / plain_vm_ms[t];
  }

  TablePrinter table({"workload", "interp ms", "vm ms", "speedup",
                      "fetches", "certs"});
  for (size_t li = 0; li < legs.size(); ++li) {
    const double im = Median(leg_interp_ms[li]);
    const double vmm = Median(leg_vm_ms[li]);
    table.AddRow({legs[li].name, FormatDouble(im, 3), FormatDouble(vmm, 3),
                  FormatDouble(im / vmm, 2) + "x",
                  FormatCount(legs[li].fetched),
                  certs_equal ? "equal" : "DIFFER"});
  }
  const double plain_speedup = Median(plain_ratio);
  const double embedded_speedup = kChaseInterpOverPlainVm / Median(chase_ratio);
  const double embedded_interp_est_ms =
      kChaseInterpOverPlainVm * Median(plain_vm_ms);
  table.AddRow({"Q3 (embedded)", FormatDouble(embedded_interp_est_ms, 3) + "*",
                FormatDouble(Median(embedded_vm_ms), 3),
                FormatDouble(embedded_speedup, 2) + "x",
                FormatCount(embedded_fetched), "n/a"});
  table.Print();
  std::printf(
      "* recorded interpreter/plain-VM ratio %.3f x this run's plain VM ms\n",
      kChaseInterpOverPlainVm);
  std::printf("\nplain speedup %.2fx, embedded speedup %.2fx, certs %s "
              "(medians of %d trials)\n",
              plain_speedup, embedded_speedup,
              certs_equal ? "equal" : "DIFFER", kTrials);

  report.Add("compiled.trials", static_cast<uint64_t>(kTrials));
  report.Add("compiled.plain_interp_ms", Median(plain_interp_ms));
  report.Add("compiled.plain_vm_ms", Median(plain_vm_ms));
  report.Add("compiled.plain_speedup", plain_speedup);
  report.Add("compiled.plain.base_tuples_fetched", plain_fetched);
  report.Add("compiled.plain.static_bound", plain_bound);
  report.Add("compiled.embedded_vm_ms", Median(embedded_vm_ms));
  report.Add("compiled.embedded_vm_over_plain_vm", Median(chase_ratio));
  report.Add("compiled.embedded_reference_ratio", kChaseInterpOverPlainVm);
  report.Add("compiled.embedded_speedup", embedded_speedup);
  report.Add("compiled.embedded.base_tuples_fetched", embedded_fetched);
  report.Add("compiled.certs_equal",
             static_cast<uint64_t>(certs_equal ? 1 : 0));
  return 0;
}
