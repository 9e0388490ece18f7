// Differential harness for the register-bytecode VM (exec/vm.h): the
// compiled path must be byte-identical to the interpreter — answers, fetch
// totals, per-relation and per-op accounting, trip records, and sealed
// access certificates — at any thread count, with and without governor
// trips. Every comparison here runs at threads {1, 4}.

#include "exec/vm.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "core/analysis_cache.h"
#include "core/bounded_eval.h"
#include "embedded_golden.h"
#include "eval/cq_evaluator.h"
#include "exec/compiler.h"
#include "io/shell.h"
#include "obs/journal.h"
#include "par/worker_pool.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/social_gen.h"

namespace scalein {
namespace {

Variable V(const char* name) { return Variable::Named(name); }

FoQuery FQ(const char* text, const Schema& s) {
  Result<FoQuery> q = ParseFoQuery(text, &s);
  SI_CHECK_MSG(q.ok(), q.status().message().c_str());
  return *std::move(q);
}

std::shared_ptr<const ControllabilityAnalysis> Analyze(const FoQuery& q,
                                                       const Schema& s,
                                                       const AccessSchema& a) {
  Result<ControllabilityAnalysis> r =
      ControllabilityAnalysis::Analyze(q.body, s, a);
  SI_CHECK_MSG(r.ok(), r.status().message().c_str());
  return std::make_shared<const ControllabilityAnalysis>(*std::move(r));
}

VarSet VarsOf(const Binding& params) {
  VarSet vars;
  for (const auto& [v, val] : params) {
    (void)val;
    vars.insert(v);
  }
  return vars;
}

/// Restores a single-lane pool when a test returns (other tests in this
/// binary assume the default).
struct PoolGuard {
  ~PoolGuard() { par::WorkerPool::Global().Resize(1); }
};

/// Seals a certificate from one evaluation's stats exactly like the shell
/// does; byte-comparing the payloads of the interpreted and compiled runs is
/// the certificate-equality check CI's bench gate also enforces.
std::string SealedPayload(const BoundedEvalStats& stats, bool tripped,
                          const exec::TripInfo& trip) {
  obs::AccessCertificate cert;
  cert.query_fingerprint = "fp-differential";
  cert.query_id = "s0-q0";
  cert.query_text = "Q";
  cert.static_bound = stats.static_bound;
  cert.actual_fetches = stats.base_tuples_fetched;
  cert.index_lookups = stats.index_lookups;
  cert.ops.reserve(stats.ops.size());
  for (const exec::OpCounters& op : stats.ops) {
    obs::CertOp co;
    co.label = op.label;
    co.rows_out = op.rows_out;
    co.tuples_fetched = op.tuples_fetched;
    co.index_lookups = op.index_lookups;
    co.static_bound = op.static_bound;
    cert.ops.push_back(std::move(co));
  }
  cert.tripped = tripped;
  if (tripped) cert.trip_reason = trip.ToString();
  obs::SealCertificate(&cert);
  EXPECT_TRUE(obs::VerifyCertificate(cert));
  return obs::CertificatePayload(cert);
}

void ExpectSameStats(const BoundedEvalStats& a, const BoundedEvalStats& b,
                     const char* label) {
  EXPECT_EQ(a.base_tuples_fetched, b.base_tuples_fetched) << label;
  EXPECT_EQ(a.index_lookups, b.index_lookups) << label;
  EXPECT_EQ(a.fetched_by_relation, b.fetched_by_relation) << label;
  EXPECT_EQ(a.static_bound, b.static_bound) << label;
  ASSERT_EQ(a.ops.size(), b.ops.size()) << label;
  for (size_t i = 0; i < a.ops.size(); ++i) {
    const exec::OpCounters& x = a.ops[i];
    const exec::OpCounters& y = b.ops[i];
    EXPECT_EQ(x.label, y.label) << label << " op " << i;
    EXPECT_EQ(x.id, y.id) << label << " op " << i;
    EXPECT_EQ(x.parent, y.parent) << label << " op " << i;
    EXPECT_EQ(x.rows_out, y.rows_out) << label << " op " << x.label;
    EXPECT_EQ(x.tuples_fetched, y.tuples_fetched) << label << " op " << x.label;
    EXPECT_EQ(x.index_lookups, y.index_lookups) << label << " op " << x.label;
    EXPECT_EQ(x.static_bound, y.static_bound) << label << " op " << x.label;
  }
}

void ExpectSameTrip(const exec::TripInfo& a, const exec::TripInfo& b,
                    const char* label) {
  EXPECT_EQ(a.kind, b.kind) << label;
  EXPECT_EQ(a.detail, b.detail) << label;
  EXPECT_EQ(a.op_id, b.op_id) << label;
  EXPECT_EQ(a.op_label, b.op_label) << label;
  EXPECT_EQ(a.fetched_at_trip, b.fetched_at_trip) << label;
}

/// The core differential: runs `q` interpreted and compiled under identical
/// configuration at threads {1, 4} and asserts byte-identity of every
/// observable (including the degraded/tripped path and sealed certificates).
void ExpectPlainDifferentialEqual(const FoQuery& q,
                                  std::shared_ptr<const ControllabilityAnalysis>
                                      analysis,
                                  Database* db, const Binding& params,
                                  const exec::GovernorLimits& limits,
                                  bool enforce) {
  Result<std::shared_ptr<const exec::CompiledProgram>> compiled =
      exec::CompilePlain(q, analysis, VarsOf(params));
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  PoolGuard guard;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::WorkerPool::Global().Resize(threads);
    const std::string label =
        "threads=" + std::to_string(threads);

    BoundedEvaluator interp(db);
    interp.set_limits(limits);
    interp.set_enforce_bounds(enforce);
    BoundedEvalStats istats;
    istats.capture_ops = true;
    Result<exec::Degraded<AnswerSet>> iref =
        interp.EvaluateDegraded(q, *analysis, params, &istats);

    exec::CompiledEvaluator vm(db);
    vm.set_limits(limits);
    vm.set_enforce_bounds(enforce);
    BoundedEvalStats vstats;
    vstats.capture_ops = true;
    Result<exec::Degraded<AnswerSet>> vref =
        vm.EvaluateDegraded(**compiled, params, &vstats);

    ASSERT_EQ(iref.ok(), vref.ok())
        << label << " interp: " << iref.status().ToString()
        << " vm: " << vref.status().ToString();
    if (!iref.ok()) {
      EXPECT_EQ(iref.status().code(), vref.status().code()) << label;
      EXPECT_EQ(iref.status().message(), vref.status().message()) << label;
      continue;
    }
    EXPECT_EQ(iref->value, vref->value) << label;
    EXPECT_EQ(iref->complete, vref->complete) << label;
    EXPECT_EQ(iref->base_tuples_fetched, vref->base_tuples_fetched) << label;
    EXPECT_EQ(iref->index_lookups, vref->index_lookups) << label;
    ExpectSameTrip(iref->trip, vref->trip, label.c_str());
    ExpectSameStats(istats, vstats, label.c_str());
    EXPECT_EQ(SealedPayload(istats, !iref->complete, iref->trip),
              SealedPayload(vstats, !vref->complete, vref->trip))
        << label;
  }
}

struct Social {
  SocialConfig config;
  Schema schema = SocialSchema(false);
  Database db{Schema{}};
  AccessSchema access;

  explicit Social(uint64_t persons) {
    config.num_persons = persons;
    config.max_friends_per_person = 10;
    config.num_restaurants = 40;
    config.seed = 99;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }
};

TEST(CompiledVmTest, Q1DifferentialAcrossParams) {
  Social social(120);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  for (int64_t p = 0; p < 12; ++p) {
    ExpectPlainDifferentialEqual(q1, analysis, &social.db,
                                 {{V("p"), Value::Int(p)}}, {},
                                 /*enforce=*/false);
  }
}

TEST(CompiledVmTest, FetchBudgetTripsAreByteIdentical) {
  Social social(120);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  Binding params{{V("p"), Value::Int(5)}};
  // Budgets from "trips immediately" to "just enough": every stopping point
  // must agree (same trip record, same partial answers, same certificate).
  for (uint64_t budget = 1; budget <= 12; ++budget) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    ExpectPlainDifferentialEqual(q1, analysis, &social.db, params, limits,
                                 /*enforce=*/false);
  }
}

TEST(CompiledVmTest, OutputRowCapTripsAreByteIdentical) {
  Social social(120);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  for (uint64_t cap : {uint64_t{1}, uint64_t{2}, uint64_t{100}}) {
    exec::GovernorLimits limits;
    limits.output_row_cap = cap;
    ExpectPlainDifferentialEqual(q1, analysis, &social.db,
                                 {{V("p"), Value::Int(3)}}, limits,
                                 /*enforce=*/false);
  }
}

TEST(CompiledVmTest, EnforceBoundsErrorsAreByteIdentical) {
  Schema s;
  s.Relation("e", {"a", "b"});
  Database db(s);
  for (int64_t i = 0; i < 5; ++i) {
    db.Insert("e", Tuple{Value::Int(1), Value::Int(i)});
  }
  AccessSchema access;
  access.Add("e", {"a"}, 2);  // declared N = 2, actual 5
  FoQuery q = FQ("Q(x, y) := e(x, y)", s);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q, s, access);
  ExpectPlainDifferentialEqual(q, analysis, &db, {{V("x"), Value::Int(1)}},
                               {}, /*enforce=*/true);
}

TEST(CompiledVmTest, PropertyShapesDifferential) {
  // Same shape corpus as the interpreter's property test: conjunctions,
  // safe negation, conditions, bare atoms — everything the compiler accepts
  // must agree with the interpreter on every observable.
  const char* queries[] = {
      "Q(x, y) := r(x, y)",
      "Q(x, z) := exists y. r(x, y) and t(y, z)",
      "Q(x, y) := r(x, y) and not t(x, y)",
      "Q(x) := exists y. r(x, y) and t(x, y)",
      "Q(x, y) := r(x, y) and (y = 2 or y = 3)",
  };
  for (uint64_t seed : {101u, 202u, 303u, 404u}) {
    Rng rng(seed);
    Schema s;
    s.Relation("r", {"a", "b"});
    s.Relation("t", {"a", "b"});
    Database db(s);
    for (int rel = 0; rel < 2; ++rel) {
      const char* name = rel == 0 ? "r" : "t";
      for (int64_t key = 0; key < 24; ++key) {
        uint64_t group = rng.Uniform(4);
        for (uint64_t g = 0; g < group; ++g) {
          db.Insert(name,
                    Tuple{Value::Int(key),
                          Value::Int(static_cast<int64_t>(rng.Uniform(6)))});
        }
      }
    }
    AccessSchema access;
    access.Add("r", {"a"}, 3);
    access.Add("t", {"a"}, 3);
    access.Add("t", {"a", "b"}, 1);
    ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
    for (const char* text : queries) {
      FoQuery q = FQ(text, s);
      std::shared_ptr<const ControllabilityAnalysis> analysis =
          Analyze(q, s, access);
      if (!analysis->IsControlledBy({V("x")})) continue;
      SCOPED_TRACE(text);
      for (int64_t p = 0; p < 6; ++p) {
        ExpectPlainDifferentialEqual(q, analysis, &db,
                                     {{V("x"), Value::Int(p)}}, {},
                                     /*enforce=*/false);
      }
    }
  }
}

TEST(CompiledVmTest, WideFrontierFanOutDifferential) {
  // ≥ 16 partial bindings after the first expand forces the governed morsel
  // fan-out at threads=4; accounting must still be byte-identical.
  Schema s;
  s.Relation("r", {"a", "b"});
  s.Relation("t", {"a", "b"});
  Database db(s);
  for (int64_t i = 0; i < 40; ++i) {
    db.Insert("r", Tuple{Value::Int(1), Value::Int(i)});
    db.Insert("t", Tuple{Value::Int(i), Value::Int(i % 7)});
  }
  AccessSchema access;
  access.Add("r", {"a"}, 64);
  access.Add("t", {"a"}, 64);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  FoQuery q = FQ("Q(x, z) := exists y. r(x, y) and t(y, z)", s);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q, s, access);
  ExpectPlainDifferentialEqual(q, analysis, &db, {{V("x"), Value::Int(1)}},
                               {}, /*enforce=*/false);
  // And under a budget that trips mid-fan-out.
  for (uint64_t budget : {uint64_t{5}, uint64_t{20}, uint64_t{45}}) {
    exec::GovernorLimits limits;
    limits.fetch_budget = budget;
    ExpectPlainDifferentialEqual(q, analysis, &db, {{V("x"), Value::Int(1)}},
                                 limits, /*enforce=*/false);
  }
}

TEST(CompiledVmTest, BatchEvaluationDifferential) {
  Social social(80);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  std::vector<Binding> batch;
  for (int64_t p = 0; p < 20; ++p) batch.push_back({{V("p"), Value::Int(p)}});
  Result<std::shared_ptr<const exec::CompiledProgram>> compiled =
      exec::CompilePlain(q1, analysis, {V("p")});
  ASSERT_TRUE(compiled.ok());
  PoolGuard guard;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::WorkerPool::Global().Resize(threads);
    BoundedEvaluator interp(&social.db);
    BoundedEvalStats istats;
    std::vector<Result<AnswerSet>> iout =
        interp.EvaluateBatch(q1, *analysis, batch, &istats);
    exec::CompiledEvaluator vm(&social.db);
    BoundedEvalStats vstats;
    std::vector<Result<AnswerSet>> vout =
        vm.EvaluateBatch(**compiled, batch, &vstats);
    ASSERT_EQ(iout.size(), vout.size());
    for (size_t i = 0; i < iout.size(); ++i) {
      ASSERT_EQ(iout[i].ok(), vout[i].ok()) << i;
      if (iout[i].ok()) {
        EXPECT_EQ(*iout[i], *vout[i]) << i;
      }
    }
    ExpectSameStats(istats, vstats, "batch");
  }
}

// ---------------------------------------------------------------------------
// Embedded (Proposition 4.5 chase): the VM is the only chase engine, so its
// every observable is replayed against tests/golden/embedded_chase.golden,
// recorded from the option-tree chase it replaced (tests/embedded_golden.h).

/// The golden cases by name.
std::map<std::string, std::string> GoldenCases() {
  std::ifstream in(std::string(SCALEIN_GOLDEN_DIR) + "/embedded_chase.golden");
  SI_CHECK_MSG(in.good(), "cannot open embedded_chase.golden");
  std::stringstream text;
  text << in.rdbuf();
  const golden::Cases cases = golden::ParseGolden(text.str());
  return {cases.begin(), cases.end()};
}

void ExpectMatchesGolden(const golden::Cases& got, const std::string& label) {
  static const std::map<std::string, std::string> want = GoldenCases();
  ASSERT_FALSE(got.empty());
  for (const auto& [name, text] : got) {
    auto it = want.find(name);
    ASSERT_NE(it, want.end()) << "no golden case '" << name << "'";
    EXPECT_EQ(text, it->second) << label << ": " << name;
  }
}

std::shared_ptr<const exec::CompiledProgram> CompileOrDie(
    const EmbeddedCqAnalysis& analysis) {
  Result<std::shared_ptr<const exec::CompiledProgram>> program =
      exec::CompileEmbedded(std::shared_ptr<const EmbeddedCqAnalysis>(
          std::shared_ptr<const EmbeddedCqAnalysis>(), &analysis));
  SI_CHECK_MSG(program.ok(), program.status().message().c_str());
  return *std::move(program);
}

/// The VM run directly on a compiled program.
golden::ChaseEngine VmEngine(Database* db) {
  return {[db](const EmbeddedCqAnalysis& a, const exec::GovernorLimits& limits,
               const Binding& params, BoundedEvalStats* stats) {
            exec::CompiledEvaluator vm(db);
            vm.set_limits(limits);
            return vm.EvaluateEmbedded(*CompileOrDie(a), params, stats);
          },
          [db](const EmbeddedCqAnalysis& a, const exec::GovernorLimits& limits,
               const Binding& params, BoundedEvalStats* stats, bool approx) {
            exec::CompiledEvaluator vm(db);
            vm.set_limits(limits);
            return vm.EvaluateEmbeddedDegraded(*CompileOrDie(a), params, stats,
                                               approx);
          }};
}

/// BoundedEvaluator's forwarding entry points (compile + VM per call).
golden::ChaseEngine ForwardingEngine(Database* db) {
  return {[db](const EmbeddedCqAnalysis& a, const exec::GovernorLimits& limits,
               const Binding& params, BoundedEvalStats* stats) {
            BoundedEvaluator e(db);
            e.set_limits(limits);
            return e.EvaluateEmbedded(a, params, stats);
          },
          [db](const EmbeddedCqAnalysis& a, const exec::GovernorLimits& limits,
               const Binding& params, BoundedEvalStats* stats, bool approx) {
            BoundedEvaluator e(db);
            e.set_limits(limits);
            return e.EvaluateEmbeddedDegraded(a, params, stats, approx);
          }};
}

/// Runs `cases` through both engines at threads {1, 4} against the golden.
template <typename CaseFn>
void ExpectGoldenAtEveryWidth(golden::DatedSocial* social, CaseFn cases) {
  PoolGuard guard;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    par::WorkerPool::Global().Resize(threads);
    const std::string label = "threads=" + std::to_string(threads);
    ExpectMatchesGolden(cases(*social, VmEngine(&social->db)), label + " vm");
    ExpectMatchesGolden(cases(*social, ForwardingEngine(&social->db)),
                        label + " BoundedEvaluator");
  }
}

TEST(CompiledVmTest, EmbeddedMatchesGoldenAcrossParams) {
  golden::DatedSocial social;
  ExpectGoldenAtEveryWidth(&social, golden::SweepCases);
  // Reference checks: answers equal the CQ semantics and fetches stay
  // within the Proposition 4.5 static bound.
  std::shared_ptr<const EmbeddedCqAnalysis> analysis = social.Analysis();
  const Cq q3 = social.Query(golden::kQ3);
  CqEvaluator reference(&social.db);
  exec::CompiledEvaluator vm(&social.db);
  int nonempty = 0;
  for (int64_t p = 0; p < 20; ++p) {
    BoundedEvalStats stats;
    Result<AnswerSet> r =
        vm.EvaluateEmbedded(*CompileOrDie(*analysis), social.Params(p), &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, reference.Evaluate(q3, social.Params(p))) << "p=" << p;
    EXPECT_LE(static_cast<double>(stats.base_tuples_fetched),
              analysis->StaticFetchBound());
    if (!r->empty()) ++nonempty;
  }
  EXPECT_GT(nonempty, 0);
}

TEST(CompiledVmTest, EmbeddedDegradedTripsMatchGolden) {
  golden::DatedSocial social;
  ExpectGoldenAtEveryWidth(&social, golden::DegradedCases);
  // Every answer a degraded run reports, approx fallback included, is a
  // genuine answer.
  CqEvaluator reference(&social.db);
  for (const char* text : {golden::kQ3, golden::kQ3Month}) {
    exec::GovernorLimits limits;
    limits.fetch_budget = 10;
    Result<exec::Degraded<AnswerSet>> r =
        VmEngine(&social.db)
            .degraded(*social.Analysis(text), limits, social.Params(3),
                      nullptr, true);
    ASSERT_TRUE(r.ok());
    const AnswerSet all =
        reference.Evaluate(social.Query(text), social.Params(3));
    for (const Tuple& t : r->value) EXPECT_TRUE(all.count(t)) << text;
  }
}

TEST(CompiledVmTest, FailpointChaseErrorsMatchGolden) {
  golden::DatedSocial social;
  ExpectGoldenAtEveryWidth(&social, golden::FailpointCases);
}

TEST(CompiledVmTest, GoldenHasNoStaleCases) {
  golden::DatedSocial social;
  const golden::ChaseEngine engine = VmEngine(&social.db);
  std::set<std::string> names;
  for (const golden::Cases& cases :
       {golden::SweepCases(social, engine),
        golden::DegradedCases(social, engine),
        golden::FailpointCases(social, engine)}) {
    for (const auto& [name, text] : cases) names.insert(name);
  }
  std::set<std::string> golden_names;
  for (const auto& [name, text] : GoldenCases()) golden_names.insert(name);
  EXPECT_EQ(names, golden_names);
}

TEST(CompiledVmTest, WideAtomChaseCompilesAndMatchesReference) {
  // A 70-column relation: two embedded statements expose overlapping
  // halves (the second step checks a30..a40 instead of binding them) and a
  // plain statement verifies the assembled candidates.
  constexpr size_t kWidth = 70;
  std::vector<std::string> cols = {"k"};
  for (size_t i = 1; i < kWidth; ++i) cols.push_back("a" + std::to_string(i));
  Schema s;
  s.Relation("w", cols);
  Database db(s);
  for (int64_t k : {1, 2}) {
    for (int64_t r = 0; r < 3; ++r) {
      Tuple t{Value::Int(k)};
      for (size_t i = 1; i < kWidth; ++i) {
        t.push_back(Value::Int(static_cast<int64_t>(i) * 100 + r + 10 * k));
      }
      db.Insert("w", t);
    }
  }
  std::vector<std::string> left(cols.begin() + 1, cols.begin() + 41);
  std::vector<std::string> right(cols.begin() + 30, cols.end());
  AccessSchema access;
  access.AddEmbedded("w", {"k"}, left, 5);
  access.AddEmbedded("w", {"k"}, right, 5);
  access.Add("w", {"k"}, 10);
  ASSERT_TRUE(access.BuildIndexes(&db, s).ok());
  std::string text = "Q(a1, a69) :- w(k";
  for (size_t i = 1; i < kWidth; ++i) text += ", a" + std::to_string(i);
  text += ")";
  Result<Cq> q = ParseCq(text, &s);
  ASSERT_TRUE(q.ok()) << q.status().message();
  Result<EmbeddedCqAnalysis> analyzed =
      EmbeddedCqAnalysis::Analyze(*q, s, access, {V("k")});
  ASSERT_TRUE(analyzed.ok());
  ASSERT_TRUE(analyzed->IsScaleIndependent());
  auto analysis =
      std::make_shared<const EmbeddedCqAnalysis>(*std::move(analyzed));
  Result<std::shared_ptr<const exec::CompiledProgram>> compiled =
      exec::CompileEmbedded(analysis);
  ASSERT_TRUE(compiled.ok()) << compiled.status().message();
  CqEvaluator reference(&db);
  exec::CompiledEvaluator vm(&db);
  for (int64_t k : {1, 2, 3}) {
    const Binding params{{V("k"), Value::Int(k)}};
    BoundedEvalStats stats;
    Result<AnswerSet> r = vm.EvaluateEmbedded(**compiled, params, &stats);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, reference.Evaluate(*q, params)) << "k=" << k;
    EXPECT_EQ(r->size(), k == 3 ? 0u : 3u);
    EXPECT_LE(static_cast<double>(stats.base_tuples_fetched),
              analysis->StaticFetchBound());
  }
}

// ---------------------------------------------------------------------------
// Plan-set lifecycle: deferral, failure caching, DDL invalidation.

/// `name`'s value in the `stats` JSON rendering; 0 when the counter was never
/// touched (the registry creates counters on first increment).
uint64_t StatsCounter(const std::string& stats, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t at = stats.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(stats.substr(at + key.size()));
}

TEST(CompiledVmTest, PlanSetDefersThenCompilesAndCachesFailures) {
  Social social(40);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  std::shared_ptr<const ControllabilityAnalysis> analysis =
      Analyze(q1, social.schema, social.access);
  exec::CompiledPlanSet set;
  std::string why;
  bool failed = false;

  // The first sighting of a parameter set defers; the second compiles.
  EXPECT_EQ(set.GetOrCompilePlain(q1, analysis, {V("p")}, &why, &failed),
            nullptr);
  EXPECT_FALSE(failed);
  EXPECT_NE(why.find("deferred"), std::string::npos) << why;
  EXPECT_EQ(set.compiles(), 0u);
  std::shared_ptr<const exec::CompiledProgram> program =
      set.GetOrCompilePlain(q1, analysis, {V("p")}, &why, &failed);
  ASSERT_NE(program, nullptr);
  EXPECT_FALSE(failed);
  EXPECT_TRUE(why.empty()) << why;
  EXPECT_EQ(set.compiles(), 1u);

  // Cached: a third call returns the same program without recompiling.
  EXPECT_EQ(set.GetOrCompilePlain(q1, analysis, {V("p")}, &why, &failed),
            program);
  EXPECT_EQ(set.compiles(), 1u);

  // A parameter set the analysis does not control defers like any other,
  // then fails once and is served from the failure slot: one rejection,
  // flagged for the fallback counter on every later sighting.
  EXPECT_EQ(set.GetOrCompilePlain(q1, analysis, {V("name")}, &why, &failed),
            nullptr);
  EXPECT_FALSE(failed);
  EXPECT_NE(why.find("deferred"), std::string::npos) << why;
  EXPECT_EQ(set.GetOrCompilePlain(q1, analysis, {V("name")}, &why, &failed),
            nullptr);
  EXPECT_TRUE(failed);
  const std::string reason = why;
  EXPECT_FALSE(reason.empty());
  failed = false;
  EXPECT_EQ(set.GetOrCompilePlain(q1, analysis, {V("name")}, &why, &failed),
            nullptr);
  EXPECT_TRUE(failed);
  EXPECT_EQ(why, reason);
  EXPECT_EQ(set.compiles(), 1u);
}

TEST(CompiledVmTest, AnalysisCacheDropsCompiledPlansOnInvalidation) {
  Social social(40);
  FoQuery q1 = FQ(
      "Q1(p, name) := exists id. friend(p, id) and person(id, name, \"NYC\")",
      social.schema);
  AnalysisCache cache;
  std::shared_ptr<exec::CompiledPlanSet> set1;
  Result<std::shared_ptr<const ControllabilityAnalysis>> a1 =
      cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access, {},
                         &set1);
  ASSERT_TRUE(a1.ok());
  ASSERT_NE(set1, nullptr);
  std::string why;
  EXPECT_EQ(set1->GetOrCompilePlain(q1, *a1, {V("p")}, &why), nullptr);
  std::shared_ptr<const exec::CompiledProgram> p1 =
      set1->GetOrCompilePlain(q1, *a1, {V("p")}, &why);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(set1->compiles(), 1u);

  // A cache hit hands back the same plan set (no recompilation).
  std::shared_ptr<exec::CompiledPlanSet> set_hit;
  ASSERT_TRUE(cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access,
                                 {}, &set_hit)
                  .ok());
  EXPECT_EQ(set_hit.get(), set1.get());

  // DDL: the entry is dropped, and with it the attached bytecode. The next
  // analyze returns a *fresh, empty* plan set — the VM can never execute a
  // program lowered from the dropped derivation.
  cache.Invalidate();
  std::shared_ptr<exec::CompiledPlanSet> set2;
  Result<std::shared_ptr<const ControllabilityAnalysis>> a2 =
      cache.GetOrAnalyze(q1.body, "q1", social.schema, social.access, {},
                         &set2);
  ASSERT_TRUE(a2.ok());
  ASSERT_NE(set2, nullptr);
  EXPECT_NE(set2.get(), set1.get());
  EXPECT_EQ(set2->compiles(), 0u);
  EXPECT_EQ(set2->GetOrCompilePlain(q1, *a2, {V("p")}, &why), nullptr);
  std::shared_ptr<const exec::CompiledProgram> p2 =
      set2->GetOrCompilePlain(q1, *a2, {V("p")}, &why);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p2.get(), p1.get());  // recompiled against the fresh derivation
  EXPECT_EQ(set2->compiles(), 1u);
}

TEST(CompiledVmTest, ShellRecompilesAfterMidSessionDdl) {
  // End-to-end DDL regression: `access` DDL between compiled evals must
  // invalidate the bytecode with the derivation. Later evals recompile
  // against the new bounds and still answer correctly — never execute the
  // stale program, never error.
  Shell shell;
  auto run = [&](const std::string& line) {
    Result<std::string> out = shell.Execute(line);
    SI_CHECK_MSG(out.ok(), (line + ": " + out.status().message()).c_str());
    return *std::move(out);
  };
  run("schema relation e(a, b)");
  run("access access e(a) N=10");
  run("row e 1,10");
  run("row e 1,11");
  const char* kEval = "eval x=1 Q(x, y) := e(x, y)";
  EXPECT_NE(run(kEval).find("(2 answers"), std::string::npos);
  const std::string compiled = run(kEval);  // second sighting: compiled
  EXPECT_NE(compiled.find("(2 answers"), std::string::npos) << compiled;
  EXPECT_EQ(StatsCounter(run("stats"), "exec.compiled_hits"), 1u);

  // DDL mid-session: tighten the declared bound. The cached entry (and its
  // compiled program) must be dropped, so the plan set starts over.
  run("access access e(a) N=5");
  EXPECT_NE(run(kEval).find("(2 answers"), std::string::npos);
  std::string stats = run("stats");
  EXPECT_EQ(StatsCounter(stats, "exec.compiled_hits"), 1u) << stats;
  const std::string recompiled = run(kEval);
  EXPECT_NE(recompiled.find("(2 answers"), std::string::npos) << recompiled;
  stats = run("stats");
  EXPECT_EQ(StatsCounter(stats, "exec.compiled_hits"), 2u) << stats;
  EXPECT_EQ(StatsCounter(stats, "exec.compiled_fallbacks"), 0u) << stats;

  // And the EXPLAIN disassembly reflects the *new* static bound, proving
  // the program was recompiled, not served stale.
  const std::string explained = run("explain x=1 Q(x, y) := e(x, y)");
  EXPECT_NE(explained.find("compiled:"), std::string::npos) << explained;
  EXPECT_NE(explained.find("static_bound=5"), std::string::npos) << explained;
}

TEST(CompiledVmTest, ShellInterpretedAndCompiledEvalsRenderIdentically) {
  // The first sighting of a query runs interpreted, the second compiled;
  // the rendered output must not tell them apart.
  Shell shell;
  auto run = [&](const std::string& line) {
    Result<std::string> out = shell.Execute(line);
    SI_CHECK_MSG(out.ok(), out.status().message().c_str());
    return *std::move(out);
  };
  run("schema relation e(a, b)");
  run("access access e(a) N=10");
  run("row e 1,10");
  run("row e 1,11");
  run("row e 2,20");
  const char* kEval = "eval x=1 Q(x, y) := e(x, y)";
  const std::string interpreted = run(kEval);
  EXPECT_EQ(StatsCounter(run("stats"), "exec.compiled_hits"), 0u);
  const std::string compiled = run(kEval);
  EXPECT_EQ(StatsCounter(run("stats"), "exec.compiled_hits"), 1u);
  EXPECT_EQ(interpreted, compiled);
  EXPECT_NE(compiled.find("(2 answers"), std::string::npos) << compiled;
}

TEST(CompiledVmTest, UnsupportedShapeFallsBackInShell) {
  // "or" derivations are outside the compiled grammar: once the deferral
  // ends, compilation fails, the eval still succeeds (interpreted), and the
  // fallback counter advances.
  Shell shell;
  auto run = [&](const std::string& line) {
    Result<std::string> out = shell.Execute(line);
    SI_CHECK_MSG(out.ok(), out.status().message().c_str());
    return *std::move(out);
  };
  run("schema relation r(a, b)");
  run("schema relation t(a, b)");
  run("access access r(a) N=5");
  run("access access t(a) N=5");
  run("row r 1,10");
  run("row t 1,20");
  const char* kEval = "eval x=1 Q(x, y) := r(x, y) or t(x, y)";
  EXPECT_NE(run(kEval).find("(2 answers"), std::string::npos);
  EXPECT_EQ(StatsCounter(run("stats"), "exec.compiled_fallbacks"), 0u);
  const std::string out = run(kEval);
  EXPECT_NE(out.find("(2 answers"), std::string::npos) << out;
  const std::string stats = run("stats");
  EXPECT_EQ(StatsCounter(stats, "exec.compiled_hits"), 0u) << stats;
  EXPECT_EQ(StatsCounter(stats, "exec.compiled_fallbacks"), 1u) << stats;
}

}  // namespace
}  // namespace scalein
