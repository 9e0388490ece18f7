#include "core/bounded_eval.h"

#include <algorithm>
#include <iterator>
#include <optional>
#include <unordered_map>

#include "exec/compiler.h"
#include "exec/governed_parallel.h"
#include "exec/vm.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "par/worker_pool.h"

namespace scalein {
namespace {

/// Minimum chase-frontier size before the per-assignment loop is worth
/// fanning out as morsels; below this the submit/merge overhead dominates.
constexpr size_t kParallelFrontierThreshold = 16;

/// Builds every index the derivation under (node, opt) can probe, so a
/// subsequent parallel walk only ever *finds* indexes (Ensure* is a
/// const-but-mutating cache fill and must not race). Mirrors the recursion
/// of PlainExecutor::RegisterOps.
void PrebuildPlainIndexes(const Database& db, const NodeAnalysis& node,
                          const ControlOption& opt) {
  if (opt.rule == "atom") {
    const Relation* rel = db.FindRelation(node.formula.relation());
    if (rel == nullptr || opt.key_positions.empty()) return;
    if (rel->num_shards() > 1) {
      rel->EnsureShardedIndex(opt.key_positions);
    } else {
      rel->EnsureIndex(opt.key_positions);
    }
    return;
  }
  if (opt.rule == "and") {
    for (size_t step = 0; step < opt.conjunct_order.size(); ++step) {
      PrebuildPlainIndexes(db, *node.subs[opt.conjunct_order[step]],
                           *opt.child_options[step]);
    }
    const size_t n_neg = node.subs.size() - node.n_positives;
    for (size_t ni = 0; ni < n_neg; ++ni) {
      PrebuildPlainIndexes(db, *node.subs[node.n_positives + ni],
                           *opt.child_options[opt.conjunct_order.size() + ni]);
    }
  } else if (opt.rule == "or") {
    for (size_t i = 0; i < node.subs.size(); ++i) {
      PrebuildPlainIndexes(db, *node.subs[i], *opt.child_options[i]);
    }
  } else if (opt.rule == "exists") {
    PrebuildPlainIndexes(db, *node.subs[0], *opt.child_options[0]);
  } else if (opt.rule == "forall") {
    PrebuildPlainIndexes(db, *node.subs[0], *opt.child_options[0]);
    PrebuildPlainIndexes(db, *node.subs[1], *opt.child_options[1]);
  }
}

Value ResolveTerm(const Term& t, const Binding& env) {
  if (t.is_const()) return t.constant();
  auto it = env.find(t.var());
  SI_CHECK_MSG(it != env.end(), "unbound variable in bounded evaluation");
  return it->second;
}

/// Evaluates an equality condition under a complete environment.
bool EvalConditionFormula(const Formula& f, const Binding& env) {
  switch (f.kind()) {
    case FormulaKind::kTrue:
      return true;
    case FormulaKind::kFalse:
      return false;
    case FormulaKind::kEq:
      return ResolveTerm(f.eq_lhs(), env) == ResolveTerm(f.eq_rhs(), env);
    case FormulaKind::kNot:
      return !EvalConditionFormula(f.child(), env);
    case FormulaKind::kAnd:
      for (const Formula& c : f.operands()) {
        if (!EvalConditionFormula(c, env)) return false;
      }
      return true;
    case FormulaKind::kOr:
      for (const Formula& c : f.operands()) {
        if (EvalConditionFormula(c, env)) return true;
      }
      return false;
    case FormulaKind::kImplies:
      return !EvalConditionFormula(f.premise(), env) ||
             EvalConditionFormula(f.conclusion(), env);
    default:
      SI_CHECK_MSG(false, "non-condition node in condition evaluation");
      return false;
  }
}

using BindingSet = std::set<Binding>;

/// Walks a controllability derivation, fetching data exclusively through the
/// engine's metered access layer so its charges land in the same
/// exec::ExecContext counters (budget, per-relation totals) every other
/// evaluation path uses.
class PlainExecutor {
 public:
  PlainExecutor(Database* db, bool enforce_bounds, exec::ExecContext* ctx)
      : db_(db), enforce_bounds_(enforce_bounds), ctx_(ctx) {}

  /// Worker-lane view for a governed fan-out: shares the parent's node→op
  /// registration (so charge logs carry the parent's op ids) but charges
  /// `ctx` — a charge-log worker context. The worker never writes the
  /// parent's OpCounters; the parent's replay does.
  PlainExecutor(const PlainExecutor& parent, exec::ExecContext* ctx)
      : db_(parent.db_),
        enforce_bounds_(parent.enforce_bounds_),
        ctx_(ctx),
        node_ops_(parent.node_ops_) {}

  Status status() const { return ctx_->status(); }

  /// Pre-registers one OpCounters per derivation node (children in
  /// evaluation order), carrying the node's static fetch bound
  /// (ControlOption::fetch_bound), so the executed derivation renders as an
  /// EXPLAIN ANALYZE tree with bound-vs-actual per node. Optional: when not
  /// called, Eval runs without per-node accounting.
  void RegisterOps(const NodeAnalysis& node, const ControlOption& opt,
                   int32_t parent) {
    std::string label =
        opt.rule == "atom" ? "atom(" + node.formula.relation() + ")" : opt.rule;
    exec::OpCounters* op = ctx_->NewOp(std::move(label), parent);
    op->static_bound = opt.fetch_bound;
    node_ops_[&node] = op;
    if (opt.rule == "and") {
      for (size_t step = 0; step < opt.conjunct_order.size(); ++step) {
        RegisterOps(*node.subs[opt.conjunct_order[step]],
                    *opt.child_options[step], op->id);
      }
      const size_t n_neg = node.subs.size() - node.n_positives;
      for (size_t ni = 0; ni < n_neg; ++ni) {
        RegisterOps(*node.subs[node.n_positives + ni],
                    *opt.child_options[opt.conjunct_order.size() + ni],
                    op->id);
      }
    } else if (opt.rule == "or") {
      for (size_t i = 0; i < node.subs.size(); ++i) {
        RegisterOps(*node.subs[i], *opt.child_options[i], op->id);
      }
    } else if (opt.rule == "exists") {
      RegisterOps(*node.subs[0], *opt.child_options[0], op->id);
    } else if (opt.rule == "forall") {
      RegisterOps(*node.subs[0], *opt.child_options[0], op->id);
      RegisterOps(*node.subs[1], *opt.child_options[1], op->id);
    }
  }

  /// Returns bindings over free(node) − dom(env). Thin accounting wrapper
  /// around EvalImpl: rows_out counts bindings produced per visit, and —
  /// only when the context enabled timing — inclusive wall time per node.
  BindingSet Eval(const NodeAnalysis& node, const ControlOption& opt,
                  const Binding& env) {
    exec::OpCounters* op = OpFor(node);
#if SCALEIN_OBS_ENABLE_TIMING
    if (op != nullptr && ctx_->timing_enabled()) {
      const uint64_t start = obs::MonotonicNowNs();
      BindingSet out = EvalImpl(node, opt, env, op);
      op->next_ns += obs::MonotonicNowNs() - start;
      ++op->next_calls;
      op->rows_out += out.size();
      return out;
    }
#endif
    BindingSet out = EvalImpl(node, opt, env, op);
    // Routed through the context so worker lanes log the bump for the
    // parent's replay instead of writing the shared counter.
    ctx_->ChargeOpRows(op, out.size());
    return out;
  }

 private:
  exec::OpCounters* OpFor(const NodeAnalysis& node) const {
    if (node_ops_.empty()) return nullptr;
    auto it = node_ops_.find(&node);
    return it == node_ops_.end() ? nullptr : it->second;
  }

  BindingSet EvalImpl(const NodeAnalysis& node, const ControlOption& opt,
                      const Binding& env, exec::OpCounters* op) {
    if (!ctx_->ok()) return {};
    if (opt.rule == "condition") {
      // Variables the condition *determines* (x = c pins, x = y chains back
      // to a controlled representative) extend the environment first.
      Binding extension;
      for (const auto& [v, t] : opt.condition_resolve) {
        if (env.count(v)) continue;
        if (t.is_const()) {
          extension.emplace(v, t.constant());
        } else {
          auto rep = env.find(t.var());
          SI_CHECK_MSG(rep != env.end(),
                       "condition representative missing from environment");
          extension.emplace(v, rep->second);
        }
      }
      Binding full = env;
      for (const auto& [v, val] : extension) full.emplace(v, val);
      return EvalConditionFormula(node.formula, full)
                 ? BindingSet{std::move(extension)}
                 : BindingSet{};
    }
    if (opt.rule == "atom") return EvalAtom(node, opt, env, op);
    if (opt.rule == "and") return EvalAnd(node, opt, env);
    if (opt.rule == "or") return EvalOr(node, opt, env);
    if (opt.rule == "exists") return EvalExists(node, opt, env);
    if (opt.rule == "forall") return EvalForall(node, opt, env);
    SI_CHECK_MSG(false, "unknown rule in derivation");
    return {};
  }

  BindingSet EvalAtom(const NodeAnalysis& node, const ControlOption& opt,
                      const Binding& env, exec::OpCounters* op) {
    const Formula& atom = node.formula;
    const Relation* rel = db_->FindRelation(atom.relation());
    if (rel == nullptr) return {};

    // Assemble the index key over the statement's X positions.
    std::vector<std::pair<size_t, Value>> kv;
    kv.reserve(opt.key_positions.size());
    for (size_t p : opt.key_positions) {
      kv.emplace_back(p, ResolveTerm(atom.args()[p], env));
    }
    std::sort(kv.begin(), kv.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::vector<size_t> positions;
    Tuple key;
    for (auto& [p, v] : kv) {
      if (!positions.empty() && positions.back() == p) continue;
      positions.push_back(p);
      key.push_back(v);
    }

    BindingSet out;
    auto consume = [&](TupleView row) {
      Binding extension;
      for (size_t p = 0; p < atom.args().size(); ++p) {
        const Term& t = atom.args()[p];
        if (t.is_const()) {
          if (!(t.constant() == row[p])) return;
          continue;
        }
        auto bound = env.find(t.var());
        if (bound != env.end()) {
          if (!(bound->second == row[p])) return;
          continue;
        }
        auto ext = extension.find(t.var());
        if (ext != extension.end()) {
          if (!(ext->second == row[p])) return;
          continue;
        }
        extension.emplace(t.var(), row[p]);
      }
      out.insert(std::move(extension));
    };

    if (positions.empty()) {
      // (R, ∅, N, T): the whole relation is the access unit.
      exec::ChargeFullAccess(ctx_, atom.relation(), *rel, op);
      if (!ctx_->ok()) return {};
      if (enforce_bounds_ && rel->size() > opt.access->max_tuples) {
        ctx_->SetError(Status::ResourceExhausted(
            "relation " + atom.relation() + " exceeds declared N of " +
            opt.access->ToString()));
        return {};
      }
      for (size_t i = 0; i < rel->size(); ++i) consume(rel->TupleAt(i));
      return out;
    }

    const std::vector<uint32_t>* rows = exec::MeteredIndexLookup(
        ctx_, atom.relation(), *rel, positions, key, op);
    if (!ctx_->ok()) return {};
    if (rows == nullptr) return out;
    if (enforce_bounds_ && rows->size() > opt.access->max_tuples) {
      ctx_->SetError(Status::ResourceExhausted(
          "σ on " + atom.relation() + " exceeds declared N of " +
          opt.access->ToString()));
      return {};
    }
    for (uint32_t r : *rows) consume(rel->TupleAt(r));
    return out;
  }

  /// True when a frontier of `items` independent sub-derivations is worth
  /// fanning out: wide enough, a pool to run on, not already inside a
  /// parallel region (batch lanes and morsel workers run inline), and the
  /// context still clean.
  bool ShouldFanOut(size_t items) const {
    return items >= kParallelFrontierThreshold && par::CurrentLane() < 0 &&
           par::WorkerPool::Global().threads() > 1 && ctx_->ok();
  }

  /// Expands every partial binding through (child, child_opt) — the §4
  /// option tree's independent subformula derivations — as governed
  /// parallel morsels. Appends to `next` in partial order, exactly like the
  /// sequential expansion loop.
  void ExpandParallel(const NodeAnalysis& child, const ControlOption& child_opt,
                      const Binding& env, const std::vector<Binding>& partials,
                      std::vector<Binding>* next) {
    // Ensure* is a const-but-mutating cache fill; build every index this
    // subtree can probe before lanes race on it.
    PrebuildPlainIndexes(*db_, child, child_opt);
    par::WorkerPool& pool = par::WorkerPool::Global();
    const std::vector<std::pair<size_t, size_t>> ranges =
        par::SplitRanges(partials.size(), pool.threads() * 4);
    std::vector<std::vector<Binding>> bufs(ranges.size());
    auto expand_one = [&](const Binding& partial, PlainExecutor* exec,
                          std::vector<Binding>* out) {
      Binding combined = env;
      for (const auto& [v, val] : partial) combined.insert_or_assign(v, val);
      for (const Binding& ext : exec->Eval(child, child_opt, combined)) {
        Binding merged = partial;
        for (const auto& [v, val] : ext) merged.insert_or_assign(v, val);
        out->push_back(std::move(merged));
      }
    };
    (void)exec::GovernedParallelMorsels(
        ctx_, ranges.size(),
        [&](size_t ri, exec::ExecContext* wctx) {
          PlainExecutor wexec(*this, wctx);
          for (size_t i = ranges[ri].first; i < ranges[ri].second && wctx->ok();
               ++i) {
            expand_one(partials[i], &wexec, &bufs[ri]);
          }
        },
        [&](size_t ri) {
          for (size_t i = ranges[ri].first; i < ranges[ri].second && ctx_->ok();
               ++i) {
            expand_one(partials[i], this, next);
          }
        },
        [&](size_t ri) {
          next->insert(next->end(), std::make_move_iterator(bufs[ri].begin()),
                       std::make_move_iterator(bufs[ri].end()));
        });
  }

  /// Filters the surviving partials through the safe negations as governed
  /// parallel morsels; (*keep)[i] ends up exactly as the sequential filter
  /// loop would leave it. Worker lanes write disjoint ranges of `keep`;
  /// morsels the reconciliation discards are either re-executed (starved)
  /// or irrelevant (the whole conjunction returns {} once the context
  /// fails).
  void FilterNegationsParallel(const NodeAnalysis& node,
                               const ControlOption& opt, const Binding& env,
                               const std::vector<Binding>& partials,
                               std::vector<uint8_t>* keep) {
    const size_t n_neg = node.subs.size() - node.n_positives;
    for (size_t ni = 0; ni < n_neg; ++ni) {
      PrebuildPlainIndexes(*db_, *node.subs[node.n_positives + ni],
                           *opt.child_options[opt.conjunct_order.size() + ni]);
    }
    keep->assign(partials.size(), 0);
    par::WorkerPool& pool = par::WorkerPool::Global();
    const std::vector<std::pair<size_t, size_t>> ranges =
        par::SplitRanges(partials.size(), pool.threads() * 4);
    auto filter_one = [&](const Binding& partial,
                          PlainExecutor* exec) -> uint8_t {
      Binding combined = env;
      for (const auto& [v, val] : partial) combined.insert_or_assign(v, val);
      for (size_t ni = 0; ni < n_neg; ++ni) {
        const NodeAnalysis& neg = *node.subs[node.n_positives + ni];
        const ControlOption& neg_opt =
            *opt.child_options[opt.conjunct_order.size() + ni];
        if (!exec->Eval(neg, neg_opt, combined).empty()) return 0;
        if (!exec->ctx_->ok()) return 0;
      }
      return 1;
    };
    (void)exec::GovernedParallelMorsels(
        ctx_, ranges.size(),
        [&](size_t ri, exec::ExecContext* wctx) {
          PlainExecutor wexec(*this, wctx);
          for (size_t i = ranges[ri].first; i < ranges[ri].second && wctx->ok();
               ++i) {
            (*keep)[i] = filter_one(partials[i], &wexec);
          }
        },
        [&](size_t ri) {
          for (size_t i = ranges[ri].first; i < ranges[ri].second && ctx_->ok();
               ++i) {
            (*keep)[i] = filter_one(partials[i], this);
          }
        },
        [&](size_t ri) {});
  }

  BindingSet EvalAnd(const NodeAnalysis& node, const ControlOption& opt,
                     const Binding& env) {
    // Positive conjuncts in derivation order; wide frontiers fan out as
    // governed parallel morsels (exec/governed_parallel.h).
    std::vector<Binding> partials = {Binding{}};
    for (size_t step = 0; step < opt.conjunct_order.size(); ++step) {
      const NodeAnalysis& child = *node.subs[opt.conjunct_order[step]];
      const ControlOption& child_opt = *opt.child_options[step];
      std::vector<Binding> next;
      if (ShouldFanOut(partials.size())) {
        ExpandParallel(child, child_opt, env, partials, &next);
        if (!ctx_->ok()) return {};
      } else {
        for (const Binding& partial : partials) {
          Binding combined = env;
          for (const auto& [v, val] : partial) {
            combined.insert_or_assign(v, val);
          }
          for (const Binding& ext : Eval(child, child_opt, combined)) {
            Binding merged = partial;
            for (const auto& [v, val] : ext) merged.insert_or_assign(v, val);
            next.push_back(std::move(merged));
          }
          if (!ctx_->ok()) return {};
        }
      }
      partials = std::move(next);
    }
    // Safe negations filter the surviving partials.
    const size_t n_neg = node.subs.size() - node.n_positives;
    BindingSet out;
    if (n_neg > 0 && ShouldFanOut(partials.size())) {
      std::vector<uint8_t> keep;
      FilterNegationsParallel(node, opt, env, partials, &keep);
      if (!ctx_->ok()) return {};
      for (size_t i = 0; i < partials.size(); ++i) {
        if (keep[i]) out.insert(partials[i]);
      }
      return out;
    }
    for (const Binding& partial : partials) {
      Binding combined = env;
      for (const auto& [v, val] : partial) combined.insert_or_assign(v, val);
      bool keep = true;
      for (size_t ni = 0; ni < n_neg; ++ni) {
        const NodeAnalysis& neg = *node.subs[node.n_positives + ni];
        const ControlOption& neg_opt =
            *opt.child_options[opt.conjunct_order.size() + ni];
        if (!Eval(neg, neg_opt, combined).empty()) {
          keep = false;
          break;
        }
        if (!ctx_->ok()) return {};
      }
      if (keep) out.insert(partial);
    }
    return out;
  }

  BindingSet EvalOr(const NodeAnalysis& node, const ControlOption& opt,
                    const Binding& env) {
    BindingSet out;
    for (size_t i = 0; i < node.subs.size(); ++i) {
      BindingSet part = Eval(*node.subs[i], *opt.child_options[i], env);
      out.insert(part.begin(), part.end());
      if (!ctx_->ok()) return {};
    }
    return out;
  }

  BindingSet EvalExists(const NodeAnalysis& node, const ControlOption& opt,
                        const Binding& env) {
    BindingSet child = Eval(*node.subs[0], *opt.child_options[0], env);
    BindingSet out;
    for (const Binding& b : child) {
      Binding projected;
      for (const auto& [v, val] : b) {
        bool quantified = false;
        for (const Variable& q : node.formula.quantified()) {
          if (q == v) {
            quantified = true;
            break;
          }
        }
        if (!quantified) projected.emplace(v, val);
      }
      out.insert(std::move(projected));
    }
    return out;
  }

  BindingSet EvalForall(const NodeAnalysis& node, const ControlOption& opt,
                        const Binding& env) {
    BindingSet premise_results =
        Eval(*node.subs[0], *opt.child_options[0], env);
    if (!ctx_->ok()) return {};
    for (const Binding& r : premise_results) {
      Binding extended = env;
      for (const auto& [v, val] : r) extended.insert_or_assign(v, val);
      if (Eval(*node.subs[1], *opt.child_options[1], extended).empty()) {
        return {};
      }
      if (!ctx_->ok()) return {};
    }
    return BindingSet{Binding{}};
  }

  Database* db_;
  bool enforce_bounds_;
  exec::ExecContext* ctx_;
  std::unordered_map<const NodeAnalysis*, exec::OpCounters*> node_ops_;
};

}  // namespace

Result<AnswerSet> BoundedEvaluator::Evaluate(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  SI_CHECK_MSG(analysis.root().formula.Equals(q.body),
               "analysis does not match the query body");
  VarSet param_vars;
  for (const auto& [v, val] : params) {
    (void)val;
    param_vars.insert(v);
  }
  const ControlOption* opt = analysis.BestOptionFor(param_vars);
  if (opt == nullptr) {
    return Status::FailedPrecondition(
        "query is not controlled by the given parameters " +
        VarSetToString(param_vars));
  }
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);  // per-evaluation resource envelope
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate", "core");
  if (span.enabled() && par::CurrentLane() >= 0) {
    span.Arg("worker", static_cast<uint64_t>(par::CurrentLane()));
  }
  PlainExecutor exec(db_, enforce_bounds_, &ctx);
  if (collect_timing_ || (stats != nullptr && stats->capture_ops)) {
    exec.RegisterOps(analysis.root(), *opt, /*parent=*/-1);
  }
  BindingSet results = exec.Eval(analysis.root(), *opt, params);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", opt->fetch_bound);
  }
  if (stats != nullptr) {
    stats->static_bound = opt->fetch_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    // One compact event for the whole evaluation: this is the µs-scale hot
    // path gated at 3% recorder-on overhead, so no start/finish pair and no
    // string-building arg path ("bounded.eval" stays in the SSO buffer).
    obs::RecordFlightNums(
        obs::EventKind::kQueryFinish, "bounded.eval",
        {{"fetched", static_cast<double>(ctx.base_tuples_fetched())},
         {"static_bound", opt->fetch_bound},
         {"tripped", ctx.trip().tripped() ? 1.0 : 0.0}});
  }
  SI_RETURN_IF_ERROR(ctx.status());

  std::vector<Variable> open;
  for (const Variable& v : q.head) {
    if (!params.count(v)) open.push_back(v);
  }
  AnswerSet answers;
  for (const Binding& b : results) {
    Tuple t;
    t.reserve(open.size());
    for (const Variable& v : open) {
      auto it = b.find(v);
      SI_CHECK_MSG(it != b.end(), "result missing a head variable");
      t.push_back(it->second);
    }
    // Distinct answers charge the output-row cap; the tripping answer is
    // withdrawn so exactly cap rows survive, deterministically (results
    // iterate in set order at any thread count).
    auto [pos, inserted] = answers.insert(std::move(t));
    if (inserted && !ctx.ChargeOutput(1, nullptr)) {
      answers.erase(pos);
      break;
    }
  }
  SI_RETURN_IF_ERROR(ctx.status());
  return answers;
}

std::vector<Result<AnswerSet>> BoundedEvaluator::EvaluateBatch(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const std::vector<Binding>& batch, BoundedEvalStats* stats) const {
  // Prebuild the indexes of every derivation the batch can take (bindings
  // over the same variables share one option; mixed batches prebuild each),
  // so worker lanes never race on Ensure*'s cache fill.
  std::set<VarSet> seen;
  for (const Binding& b : batch) {
    VarSet vars;
    for (const auto& [v, val] : b) {
      (void)val;
      vars.insert(v);
    }
    if (!seen.insert(vars).second) continue;
    const ControlOption* opt = analysis.BestOptionFor(vars);
    if (opt != nullptr) PrebuildPlainIndexes(*db_, analysis.root(), *opt);
  }

  // Result<T> has no default constructor, so slots are optional and filled
  // by index; every evaluation is independent (fresh context, same limits),
  // making each slot identical to a sequential Evaluate call.
  std::vector<std::optional<Result<AnswerSet>>> slots(batch.size());
  std::vector<BoundedEvalStats> worker_stats(batch.size());
  const bool capture_ops = stats != nullptr && stats->capture_ops;
  par::WorkerPool::Global().ParallelFor(batch.size(), [&](size_t i) {
    worker_stats[i].capture_ops = capture_ops;
    slots[i].emplace(Evaluate(q, analysis, batch[i], &worker_stats[i]));
  });

  std::vector<Result<AnswerSet>> out;
  out.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    if (stats != nullptr) stats->Merge(worker_stats[i]);
    out.push_back(std::move(*slots[i]));
  }
  return out;
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateDegraded(
    const FoQuery& q, const ControllabilityAnalysis& analysis,
    const Binding& params, BoundedEvalStats* stats) const {
  SI_CHECK_MSG(analysis.root().formula.Equals(q.body),
               "analysis does not match the query body");
  VarSet param_vars;
  for (const auto& [v, val] : params) {
    (void)val;
    param_vars.insert(v);
  }
  const ControlOption* opt = analysis.BestOptionFor(param_vars);
  if (opt == nullptr) {
    return Status::FailedPrecondition(
        "query is not controlled by the given parameters " +
        VarSetToString(param_vars));
  }
  exec::ExecContext ctx(db_);
  ctx.set_limits(limits_);
  ctx.set_timing_enabled(collect_timing_);
  obs::ScopedSpan span(ctx.tracer(), "bounded.evaluate_degraded", "core");
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(obs::EventKind::kQueryStart,
                           "bounded.evaluate_degraded",
                           {obs::EventArg("static_bound", opt->fetch_bound)});
  }
  PlainExecutor executor(db_, enforce_bounds_, &ctx);
  // Ops are always registered here so that a trip's snapshot can name the
  // derivation node that was executing when the limit fired.
  executor.RegisterOps(analysis.root(), *opt, /*parent=*/-1);
  BindingSet results = executor.Eval(analysis.root(), *opt, params);
  if (span.enabled()) {
    span.Arg("fetched", ctx.base_tuples_fetched());
    span.Arg("static_bound", opt->fetch_bound);
    span.Arg("tripped", ctx.trip().tripped());
  }
  if (stats != nullptr) {
    stats->static_bound = opt->fetch_bound;
    stats->Accumulate(ctx);
  }
  if (obs::FlightRecorderEnabled()) {
    obs::RecordFlightEvent(
        obs::EventKind::kQueryFinish, "bounded.evaluate_degraded",
        {obs::EventArg("fetched", ctx.base_tuples_fetched()),
         obs::EventArg("static_bound", opt->fetch_bound),
         obs::EventArg("tripped", ctx.trip().tripped())});
  }

  exec::Degraded<AnswerSet> out;
  // Bindings that survived the full derivation are sound answers even when
  // the walk was cut short (subtrees abandoned mid-derivation return no
  // bindings rather than unchecked ones). Projection runs before the trip
  // check because the output-row cap trips *here*: the first cap distinct
  // answers are kept and the tripping answer is withdrawn, so a row-capped
  // degraded result is identical at any thread count.
  std::vector<Variable> open;
  for (const Variable& v : q.head) {
    if (!params.count(v)) open.push_back(v);
  }
  for (const Binding& b : results) {
    Tuple t;
    t.reserve(open.size());
    for (const Variable& v : open) {
      auto it = b.find(v);
      SI_CHECK_MSG(it != b.end(), "result missing a head variable");
      t.push_back(it->second);
    }
    auto [pos, inserted] = out.value.insert(std::move(t));
    if (inserted && !ctx.ChargeOutput(1, nullptr)) {
      out.value.erase(pos);
      break;
    }
  }
  out.base_tuples_fetched = ctx.base_tuples_fetched();
  out.index_lookups = ctx.index_lookups();
  if (!ctx.ok()) {
    // Only governor trips degrade; other failures stay errors.
    if (!ctx.trip().tripped()) return ctx.status();
    out.complete = false;
    out.trip = ctx.trip();
    out.ops = ctx.SnapshotOps();
  }
  return out;
}

namespace {

/// Lowers `analysis` for one call; the program borrows the caller's
/// analysis through a non-owning shared_ptr, so it must not outlive the call.
Result<std::shared_ptr<const exec::CompiledProgram>> CompileChase(
    const EmbeddedCqAnalysis& analysis) {
  return exec::CompileEmbedded(std::shared_ptr<const EmbeddedCqAnalysis>(
      std::shared_ptr<const EmbeddedCqAnalysis>(), &analysis));
}

/// The VM that runs the chase, with the evaluator's enforce/limits/timing.
exec::CompiledEvaluator ChaseVm(Database* db, bool enforce,
                                const exec::GovernorLimits& limits,
                                bool collect_timing) {
  exec::CompiledEvaluator vm(db);
  vm.set_enforce_bounds(enforce);
  vm.set_limits(limits);
  vm.set_collect_timing(collect_timing);
  return vm;
}

}  // namespace

std::vector<Result<AnswerSet>> BoundedEvaluator::EvaluateEmbeddedBatch(
    const EmbeddedCqAnalysis& analysis, const std::vector<Binding>& batch,
    BoundedEvalStats* stats) const {
  Result<std::shared_ptr<const exec::CompiledProgram>> program =
      CompileChase(analysis);
  if (!program.ok()) {
    return std::vector<Result<AnswerSet>>(batch.size(), program.status());
  }
  return ChaseVm(db_, enforce_bounds_, limits_, collect_timing_)
      .EvaluateEmbeddedBatch(**program, batch, stats);
}

Result<AnswerSet> BoundedEvaluator::EvaluateEmbedded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats) const {
  SI_ASSIGN_OR_RETURN(std::shared_ptr<const exec::CompiledProgram> program,
                      CompileChase(analysis));
  return ChaseVm(db_, enforce_bounds_, limits_, collect_timing_)
      .EvaluateEmbedded(*program, params, stats);
}

Result<exec::Degraded<AnswerSet>> BoundedEvaluator::EvaluateEmbeddedDegraded(
    const EmbeddedCqAnalysis& analysis, const Binding& params,
    BoundedEvalStats* stats, bool fallback_to_approx) const {
  SI_ASSIGN_OR_RETURN(std::shared_ptr<const exec::CompiledProgram> program,
                      CompileChase(analysis));
  return ChaseVm(db_, enforce_bounds_, limits_, collect_timing_)
      .EvaluateEmbeddedDegraded(*program, params, stats, fallback_to_approx);
}

}  // namespace scalein
