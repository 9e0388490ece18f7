// Golden cases for the Proposition 4.5 chase.
//
// One rendering of every observable of an embedded evaluation — answers,
// Status, TripInfo, complete/fallback flag, fetches and lookups per
// relation, the per-op forest (label, rows, fetched, bound) and the sealed
// certificate payload — over the Example 4.6 Q3 fixture. The committed file
// tests/golden/embedded_chase.golden was rendered by these functions from
// the option-tree interpreter's chase before that engine was deleted; the
// tests replay the same cases through the bytecode VM (exec/vm.h) and
// compare text. A case is a (name, rendering) pair; the file is every case
// as a `=== name` line followed by its rendering.

#ifndef SCALEIN_TESTS_EMBEDDED_GOLDEN_H_
#define SCALEIN_TESTS_EMBEDDED_GOLDEN_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/access_schema.h"
#include "core/bounded_eval.h"
#include "core/embedded_controllability.h"
#include "obs/journal.h"
#include "query/parser.h"
#include "util/failpoint.h"
#include "workload/social_gen.h"

namespace scalein::golden {

/// Example 4.6's Q3, and a variant that also returns the visit month so a
/// person has several answers (the output-row cap needs more than one).
inline constexpr const char* kQ3 =
    "Q3(rn, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
    "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")";
inline constexpr const char* kQ3Month =
    "Q3m(rn, mm, p, yy) :- friend(p, id), visit(id, rid, yy, mm, dd), "
    "person(id, pn, \"NYC\"), restr(rid, rn, \"NYC\", \"A\")";

/// The dated social graph of embedded_test / compiled_vm_test: 80 persons,
/// half of them in NYC, one year of dated visits, seed 17.
struct DatedSocial {
  SocialConfig config;
  Schema schema = SocialSchema(true);
  Database db{Schema{}};
  AccessSchema access;

  DatedSocial() {
    config.num_persons = 80;
    config.max_friends_per_person = 8;
    config.num_restaurants = 12;
    config.avg_visits_per_person = 14;
    config.num_cities = 2;
    config.num_years = 1;
    config.dated_visits = true;
    config.seed = 17;
    db = GenerateSocial(config);
    access = SocialAccessSchema(config);
    SI_CHECK(access.BuildIndexes(&db, schema).ok());
  }

  Cq Query(const char* text) const {
    Result<Cq> q = ParseCq(text, &schema);
    SI_CHECK_MSG(q.ok(), q.status().message().c_str());
    return *std::move(q);
  }

  /// The embedded analysis of `text` with parameters {p, yy}.
  std::shared_ptr<const EmbeddedCqAnalysis> Analysis(
      const char* text = kQ3) const {
    Result<EmbeddedCqAnalysis> a = EmbeddedCqAnalysis::Analyze(
        Query(text), schema, access,
        {Variable::Named("p"), Variable::Named("yy")});
    SI_CHECK_MSG(a.ok(), a.status().message().c_str());
    SI_CHECK(a->IsScaleIndependent());
    return std::make_shared<const EmbeddedCqAnalysis>(*std::move(a));
  }

  Binding Params(int64_t p) const {
    return {{Variable::Named("p"), Value::Int(p)},
            {Variable::Named("yy"),
             Value::Int(static_cast<int64_t>(config.first_year))}};
  }
};

/// The engine under test: one embedded evaluation and one degradation-aware
/// evaluation of an analysis, each under the given limits.
struct ChaseEngine {
  std::function<Result<AnswerSet>(const EmbeddedCqAnalysis&,
                                  const exec::GovernorLimits&, const Binding&,
                                  BoundedEvalStats*)>
      eval;
  std::function<Result<exec::Degraded<AnswerSet>>(
      const EmbeddedCqAnalysis&, const exec::GovernorLimits&, const Binding&,
      BoundedEvalStats*, bool)>
      degraded;
};

using Cases = std::vector<std::pair<std::string, std::string>>;

inline std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string RenderAnswers(const AnswerSet& answers) {
  std::string out = "answers " + std::to_string(answers.size()) + "\n";
  for (const Tuple& t : answers) out += "  " + TupleToString(t) + "\n";
  return out;
}

inline std::string RenderOps(const std::vector<exec::OpCounters>& ops) {
  std::string out;
  for (const exec::OpCounters& op : ops) {
    out += "op " + std::to_string(op.id) + " parent " +
           std::to_string(op.parent) + " " + op.label + " rows " +
           std::to_string(op.rows_out) + " fetched " +
           std::to_string(op.tuples_fetched) + " lookups " +
           std::to_string(op.index_lookups) + " bound " +
           Num(op.static_bound) + "\n";
  }
  return out;
}

inline std::string RenderTrip(const exec::TripInfo& trip) {
  return "trip kind " + std::to_string(static_cast<int>(trip.kind)) +
         " op " + std::to_string(trip.op_id) + " label '" + trip.op_label +
         "' fetched_at_trip " + std::to_string(trip.fetched_at_trip) +
         " detail '" + trip.detail + "'\n";
}

/// Seals a certificate from one evaluation's stats the way the shell does.
inline obs::AccessCertificate Seal(const BoundedEvalStats& stats,
                                   const exec::TripInfo& trip) {
  obs::AccessCertificate cert;
  cert.query_fingerprint = "fp-embedded-golden";
  cert.query_id = "s0-q0";
  cert.query_text = "Q3";
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
  cert.tripped = trip.tripped();
  if (cert.tripped) cert.trip_reason = trip.ToString();
  obs::SealCertificate(&cert);
  return cert;
}

inline std::string RenderStats(const BoundedEvalStats& stats,
                               const exec::TripInfo& trip) {
  std::string out = "stats fetched " +
                    std::to_string(stats.base_tuples_fetched) + " lookups " +
                    std::to_string(stats.index_lookups) + " bound " +
                    Num(stats.static_bound) + "\n";
  for (const auto& [name, n] : stats.fetched_by_relation) {
    out += "relation " + name + " " + std::to_string(n) + "\n";
  }
  out += RenderOps(stats.ops);
  const obs::AccessCertificate cert = Seal(stats, trip);
  out += "cert " + obs::CertificatePayload(cert) + "\n";
  out += "seal " + std::to_string(cert.signature) + "\n";
  return out;
}

inline std::string RenderResult(const Result<AnswerSet>& r,
                                 const BoundedEvalStats& stats) {
  std::string out =
      r.ok() ? RenderAnswers(*r) : "status " + r.status().ToString() + "\n";
  return out + RenderStats(stats, exec::TripInfo{});
}

inline std::string RenderDegraded(const Result<exec::Degraded<AnswerSet>>& r,
                                  const BoundedEvalStats& stats) {
  if (!r.ok()) {
    return "status " + r.status().ToString() + "\n" +
           RenderStats(stats, exec::TripInfo{});
  }
  std::string out = RenderAnswers(r->value);
  out += "complete " + std::to_string(r->complete ? 1 : 0) + " fallback '" +
         r->fallback + "' fetched " + std::to_string(r->base_tuples_fetched) +
         " lookups " + std::to_string(r->index_lookups) + "\n";
  out += RenderTrip(r->trip);
  out += RenderOps(r->ops);
  return out + RenderStats(stats, r->trip);
}

/// Q3 over persons 0..19 with op capture — embedded_test's sweep.
inline Cases SweepCases(const DatedSocial& social, const ChaseEngine& engine) {
  const std::shared_ptr<const EmbeddedCqAnalysis> q3 = social.Analysis();
  Cases out;
  for (int64_t p = 0; p < 20; ++p) {
    BoundedEvalStats stats;
    stats.capture_ops = true;
    Result<AnswerSet> r = engine.eval(*q3, {}, social.Params(p), &stats);
    out.emplace_back("sweep p=" + std::to_string(p), RenderResult(r, stats));
  }
  return out;
}

/// Fetch-budget trips of Q3 and output-row trips of Q3m (six answers) on
/// person 3, with and without the approx fallback.
inline Cases DegradedCases(const DatedSocial& social,
                           const ChaseEngine& engine) {
  struct Case {
    const char* query;
    uint64_t budget;
    uint64_t rows;
    bool approx;
  };
  const Case cases[] = {
      {kQ3, 1, 0, false},      {kQ3, 3, 0, false},
      {kQ3, 10, 0, false},     {kQ3, 1, 0, true},
      {kQ3, 3, 0, true},       {kQ3, 10, 0, true},
      {kQ3, 1000, 0, true},    {kQ3Month, 0, 1, false},
      {kQ3Month, 0, 3, false}, {kQ3Month, 100000, 2, true}};
  Cases out;
  for (const Case& c : cases) {
    exec::GovernorLimits limits;
    limits.fetch_budget = c.budget;
    limits.output_row_cap = c.rows;
    BoundedEvalStats stats;
    stats.capture_ops = true;
    Result<exec::Degraded<AnswerSet>> r = engine.degraded(
        *social.Analysis(c.query), limits, social.Params(3), &stats, c.approx);
    out.emplace_back(std::string("degraded ") +
                         (c.query == kQ3 ? "Q3" : "Q3m") +
                         " budget=" + std::to_string(c.budget) +
                         " rows=" + std::to_string(c.rows) +
                         " approx=" + std::to_string(c.approx ? 1 : 0),
                     RenderDegraded(r, stats));
  }
  return out;
}

/// `chase_step` error schedules over consecutive evaluations of person 3:
/// every:2 fails every call at its second chase step, every:5 alternates a
/// complete call with a failure at the first step. The every:2 stream then
/// restarts for one degradation-aware evaluation (a failpoint is an error,
/// never a degradation).
inline Cases FailpointCases(const DatedSocial& social,
                            const ChaseEngine& engine) {
  const std::shared_ptr<const EmbeddedCqAnalysis> q3 = social.Analysis();
  util::Failpoints& fp = util::Failpoints::Global();
  Cases out;
  for (int every : {2, 5}) {
    const std::string spec =
        "chase_step=error(every:" + std::to_string(every) + ")";
    SI_CHECK(fp.Configure(spec).ok());
    for (int call = 0; call < 3; ++call) {
      BoundedEvalStats stats;
      stats.capture_ops = true;
      Result<AnswerSet> r = engine.eval(*q3, {}, social.Params(3), &stats);
      out.emplace_back("failpoint every:" + std::to_string(every) +
                           " call=" + std::to_string(call),
                       RenderResult(r, stats));
    }
  }
  SI_CHECK(fp.Configure("chase_step=error(every:2)").ok());
  BoundedEvalStats stats;
  stats.capture_ops = true;
  Result<exec::Degraded<AnswerSet>> r =
      engine.degraded(*q3, {}, social.Params(3), &stats, true);
  out.emplace_back("failpoint every:2 degraded", RenderDegraded(r, stats));
  fp.Clear();
  return out;
}

inline std::string FormatGolden(const Cases& cases) {
  std::string out;
  for (const auto& [name, text] : cases) out += "=== " + name + "\n" + text;
  return out;
}

inline Cases ParseGolden(const std::string& text) {
  Cases out;
  size_t at = 0;
  while (at < text.size()) {
    size_t eol = text.find('\n', at);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(at, eol - at);
    if (line.rfind("=== ", 0) == 0) {
      out.emplace_back(line.substr(4), "");
    } else if (!out.empty()) {
      out.back().second += line + "\n";
    }
    at = eol + 1;
  }
  return out;
}

}  // namespace scalein::golden

#endif  // SCALEIN_TESTS_EMBEDDED_GOLDEN_H_
