#include "exec/compiler.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "relational/relation.h"

namespace scalein::exec {
namespace {

uint16_t InternConst(CompiledProgram* p, const Value& v) {
  for (size_t i = 0; i < p->consts.size(); ++i) {
    if (p->consts[i] == v) return static_cast<uint16_t>(i);
  }
  p->consts.push_back(v);
  return static_cast<uint16_t>(p->consts.size() - 1);
}

uint32_t InternRelation(CompiledProgram* p, const std::string& name) {
  for (size_t i = 0; i < p->relations.size(); ++i) {
    if (p->relations[i] == name) return static_cast<uint32_t>(i);
  }
  p->relations.push_back(name);
  return static_cast<uint32_t>(p->relations.size() - 1);
}

Result<Reg> AllocReg(CompiledProgram* p, const Variable& v,
                     std::map<Variable, Reg>* var_regs) {
  if (p->num_regs >= kNoReg) {
    return Status::Unimplemented("register file exhausted");
  }
  Reg r = p->num_regs++;
  var_regs->emplace(v, r);
  return r;
}

/// Lowers one atom leaf. `env` maps every environment-bound variable to its
/// frontier register; when `bind_regs` is set (positive leaves) the leaf's
/// new variables are given frontier registers and recorded in `env`.
Status CompileAtomLeaf(const NodeAnalysis& node, const ControlOption& opt,
                       bool bind_regs, CompiledProgram* p,
                       std::map<Variable, Reg>* env, LeafCode* out) {
  const Formula& atom = node.formula;
  if (opt.access == nullptr && !opt.key_positions.empty()) {
    return Status::Unimplemented("atom option has no access statement");
  }
  out->is_condition = false;
  out->relation = InternRelation(p, atom.relation());
  out->access = opt.access;
  out->key_positions = Relation::CanonicalPositions(opt.key_positions);
  out->full_scan = out->key_positions.empty();
  for (size_t pos : out->key_positions) {
    const Term& t = atom.args()[pos];
    Slot s;
    if (t.is_const()) {
      s.kind = Slot::Kind::kConst;
      s.index = InternConst(p, t.constant());
    } else {
      auto it = env->find(t.var());
      if (it == env->end()) {
        return Status::Unimplemented("key variable '" + t.var().name() +
                                     "' is not bound by the environment");
      }
      s.kind = Slot::Kind::kReg;
      s.reg = it->second;
    }
    out->key.push_back(s);
  }
  if (!out->key_positions.empty()) {
    p->prebuilds.push_back({out->relation, out->key_positions});
  }

  // New variables in variable-id order — the interpreter's extension Binding
  // iterates in exactly this order, which fixes local slot assignment and
  // (for positive leaves) the merge order into frontier registers.
  VarSet ext;
  for (const Term& t : atom.args()) {
    if (t.is_var() && !env->count(t.var())) ext.insert(t.var());
  }
  std::map<Variable, uint16_t> local;
  for (const Variable& v : ext) {
    local.emplace(v, static_cast<uint16_t>(local.size()));
  }
  out->ext_width = static_cast<uint16_t>(ext.size());

  std::set<Variable> seen;
  for (const Term& t : atom.args()) {
    UnifyStep s;
    if (t.is_const()) {
      s.kind = UnifyStep::Kind::kCheckConst;
      s.index = InternConst(p, t.constant());
    } else if (env->count(t.var())) {
      s.kind = UnifyStep::Kind::kCheckReg;
      s.reg = env->at(t.var());
    } else if (seen.insert(t.var()).second) {
      s.kind = UnifyStep::Kind::kBindLocal;
      s.index = local.at(t.var());
    } else {
      s.kind = UnifyStep::Kind::kCheckLocal;
      s.index = local.at(t.var());
    }
    out->unify.push_back(s);
  }

  if (bind_regs) {
    for (const Variable& v : ext) {
      SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p, v, env));
      out->ext_regs.push_back(r);
    }
  }
  return Status::OK();
}

/// Lowers one condition leaf (the §4 "condition" rule: a Boolean
/// combination of equalities whose unresolved variables are determined by
/// condition_resolve pins/representatives).
Status CompileConditionLeaf(const NodeAnalysis& node, const ControlOption& opt,
                            bool bind_regs, CompiledProgram* p,
                            std::map<Variable, Reg>* env, LeafCode* out) {
  out->is_condition = true;
  out->cond = node.formula;
  std::map<Variable, uint16_t> local;
  for (const auto& [v, t] : opt.condition_resolve) {
    if (env->count(v)) continue;
    Slot s;
    if (t.is_const()) {
      s.kind = Slot::Kind::kConst;
      s.index = InternConst(p, t.constant());
    } else {
      auto rep = env->find(t.var());
      if (rep == env->end()) {
        return Status::Unimplemented("condition representative '" +
                                     t.var().name() +
                                     "' is not bound by the environment");
      }
      s.kind = Slot::Kind::kReg;
      s.reg = rep->second;
    }
    local.emplace(v, static_cast<uint16_t>(out->cond_sources.size()));
    out->cond_sources.push_back(s);
  }
  out->ext_width = static_cast<uint16_t>(out->cond_sources.size());
  for (const Variable& v : node.formula.FreeVariables()) {
    CondVar cv;
    cv.var_id = v.id();
    auto reg = env->find(v);
    if (reg != env->end()) {
      cv.local = false;
      cv.reg = reg->second;
    } else {
      auto loc = local.find(v);
      if (loc == local.end()) {
        return Status::Unimplemented("condition variable '" + v.name() +
                                     "' is neither bound nor determined");
      }
      cv.local = true;
      cv.index = loc->second;
    }
    out->cond_vars.push_back(cv);
  }
  if (bind_regs) {
    for (const auto& [v, idx] : local) {
      (void)idx;  // map iteration is id order == local slot order
      SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p, v, env));
      out->ext_regs.push_back(r);
    }
  }
  return Status::OK();
}

Status CompileLeaf(const NodeAnalysis& node, const ControlOption& opt,
                   bool bind_regs, CompiledProgram* p,
                   std::map<Variable, Reg>* env, LeafCode* out) {
  if (opt.rule == "atom") {
    return CompileAtomLeaf(node, opt, bind_regs, p, env, out);
  }
  if (opt.rule == "condition") {
    return CompileConditionLeaf(node, opt, bind_regs, p, env, out);
  }
  return Status::Unimplemented("unsupported derivation rule '" + opt.rule +
                               "' (compiled grammar: exists* (and | leaf))");
}

std::vector<Reg> LayoutFor(const VarSet& domain,
                           const std::map<Variable, Reg>& var_regs) {
  std::vector<Reg> layout;
  layout.reserve(domain.size());
  for (const Variable& v : domain) layout.push_back(var_regs.at(v));
  return layout;
}

}  // namespace

Result<std::shared_ptr<const CompiledProgram>> CompilePlain(
    const FoQuery& q, std::shared_ptr<const ControllabilityAnalysis> analysis,
    const VarSet& param_vars) {
  const ControlOption* opt = analysis->BestOptionFor(param_vars);
  if (opt == nullptr) {
    return Status::FailedPrecondition(
        "query is not controlled by the given parameters " +
        VarSetToString(param_vars));
  }
  auto prog = std::make_shared<CompiledProgram>();
  CompiledProgram* p = prog.get();
  p->kind = CompiledProgram::Kind::kPlain;
  p->params = param_vars;
  p->static_bound = opt->fetch_bound;
  p->keepalive = analysis;

  std::map<Variable, Reg> var_regs;
  for (const Variable& v : param_vars) {
    SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p, v, &var_regs));
    p->param_regs.emplace_back(v, r);
  }

  // Descend the ∃-wrapper chain, emitting op prototypes in the
  // interpreter's RegisterOps pre-order (each node before its children).
  struct ExistsFrame {
    const NodeAnalysis* node;
    int32_t op_idx;
  };
  std::vector<ExistsFrame> exists_chain;
  const NodeAnalysis* node = &analysis->root();
  const ControlOption* cur = opt;
  int32_t parent_idx = -1;
  while (cur->rule == "exists") {
    p->ops.push_back({"exists", parent_idx, cur->fetch_bound});
    parent_idx = static_cast<int32_t>(p->ops.size()) - 1;
    exists_chain.push_back({node, parent_idx});
    node = node->subs[0].get();
    cur = cur->child_options[0];
  }

  VarSet domain;  // the frontier's binding domain (excludes parameters)
  if (cur->rule == "and") {
    p->ops.push_back({"and", parent_idx, cur->fetch_bound});
    const int32_t and_idx = static_cast<int32_t>(p->ops.size()) - 1;
    const size_t n_neg = node->subs.size() - node->n_positives;

    // Op prototypes first (children in evaluation order, negations after),
    // exactly like RegisterOps; leaf bodies are lowered in a second pass.
    std::vector<int32_t> step_ops, neg_ops;
    for (size_t step = 0; step < cur->conjunct_order.size(); ++step) {
      const NodeAnalysis& child = *node->subs[cur->conjunct_order[step]];
      const ControlOption& copt = *cur->child_options[step];
      std::string label = copt.rule == "atom"
                              ? "atom(" + child.formula.relation() + ")"
                              : copt.rule;
      p->ops.push_back({std::move(label), and_idx, copt.fetch_bound});
      step_ops.push_back(static_cast<int32_t>(p->ops.size()) - 1);
    }
    for (size_t ni = 0; ni < n_neg; ++ni) {
      const NodeAnalysis& neg = *node->subs[node->n_positives + ni];
      const ControlOption& nopt =
          *cur->child_options[cur->conjunct_order.size() + ni];
      std::string label = nopt.rule == "atom"
                              ? "atom(" + neg.formula.relation() + ")"
                              : nopt.rule;
      p->ops.push_back({std::move(label), and_idx, nopt.fetch_bound});
      neg_ops.push_back(static_cast<int32_t>(p->ops.size()) - 1);
    }

    for (size_t step = 0; step < cur->conjunct_order.size(); ++step) {
      const NodeAnalysis& child = *node->subs[cur->conjunct_order[step]];
      const ControlOption& copt = *cur->child_options[step];
      PlainStage stage;
      stage.kind = PlainStage::Kind::kExpand;
      stage.leaf.op_idx = step_ops[step];
      SI_RETURN_IF_ERROR(CompileLeaf(child, copt, /*bind_regs=*/true, p,
                                     &var_regs, &stage.leaf));
      p->stages.push_back(std::move(stage));
    }
    if (n_neg > 0) {
      PlainStage stage;
      stage.kind = PlainStage::Kind::kNegations;
      for (size_t ni = 0; ni < n_neg; ++ni) {
        const NodeAnalysis& neg = *node->subs[node->n_positives + ni];
        const ControlOption& nopt =
            *cur->child_options[cur->conjunct_order.size() + ni];
        LeafCode leaf;
        leaf.op_idx = neg_ops[ni];
        SI_RETURN_IF_ERROR(
            CompileLeaf(neg, nopt, /*bind_regs=*/false, p, &var_regs, &leaf));
        stage.negs.push_back(std::move(leaf));
      }
      p->stages.push_back(std::move(stage));
    }
    for (const auto& [v, r] : var_regs) {
      (void)r;
      if (!param_vars.count(v)) domain.insert(v);
    }
    PlainStage fin;
    fin.kind = PlainStage::Kind::kFinalize;
    fin.op_idx = and_idx;
    fin.layout = LayoutFor(domain, var_regs);
    p->stages.push_back(std::move(fin));
  } else {
    std::string label = cur->rule == "atom"
                            ? "atom(" + node->formula.relation() + ")"
                            : cur->rule;
    p->ops.push_back({std::move(label), parent_idx, cur->fetch_bound});
    PlainStage stage;
    stage.kind = PlainStage::Kind::kExpand;
    stage.leaf.op_idx = static_cast<int32_t>(p->ops.size()) - 1;
    SI_RETURN_IF_ERROR(
        CompileLeaf(*node, *cur, /*bind_regs=*/true, p, &var_regs, &stage.leaf));
    p->stages.push_back(std::move(stage));
    for (const auto& [v, r] : var_regs) {
      (void)r;
      if (!param_vars.count(v)) domain.insert(v);
    }
  }

  // ∃-projections innermost first, matching the evaluation (return) order.
  for (auto it = exists_chain.rbegin(); it != exists_chain.rend(); ++it) {
    for (const Variable& v : it->node->formula.quantified()) domain.erase(v);
    PlainStage stage;
    stage.kind = PlainStage::Kind::kExistsFinalize;
    stage.op_idx = it->op_idx;
    stage.layout = LayoutFor(domain, var_regs);
    p->stages.push_back(std::move(stage));
  }
  p->final_layout = LayoutFor(domain, var_regs);

  for (const Variable& v : q.head) {
    if (param_vars.count(v)) continue;
    if (!domain.count(v)) {
      return Status::Unimplemented("head variable '" + v.name() +
                                   "' is not bound by the compiled plan");
    }
    p->head_regs.push_back(var_regs.at(v));
  }
  // The VM's flat frontier needs a row width of at least one Value even for
  // variable-free programs (a zero width would make every row buffer empty).
  if (p->num_regs == 0) p->num_regs = 1;
  return std::shared_ptr<const CompiledProgram>(std::move(prog));
}

Result<std::shared_ptr<const CompiledProgram>> CompileEmbedded(
    std::shared_ptr<const EmbeddedCqAnalysis> analysis) {
  if (!analysis->IsScaleIndependent()) {
    return Status::FailedPrecondition(
        "query has no embedded-controllability plan");
  }
  const Cq& q = analysis->query();
  const EmbeddedPlan& plan = analysis->plan();
  auto prog = std::make_shared<CompiledProgram>();
  CompiledProgram* p = prog.get();
  p->kind = CompiledProgram::Kind::kEmbedded;
  p->params = analysis->params();
  p->static_bound = plan.fetch_bound;
  p->keepalive = analysis;
  p->embed_query = q;

  std::map<Variable, Reg> var_regs;
  for (const Variable& v : p->params) {
    SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p, v, &var_regs));
    p->param_regs.emplace_back(v, r);
  }

  p->ops.push_back({"embedded-cq", -1, plan.fetch_bound});
  for (const AtomPlan& ap : plan.atom_plans) {
    p->ops.push_back({"chase(" + q.atoms()[ap.atom_index].relation + ")", 0,
                      ap.fetch_bound});
  }

  VarSet bound = p->params;
  for (size_t ai = 0; ai < plan.atom_plans.size(); ++ai) {
    const AtomPlan& ap = plan.atom_plans[ai];
    const CqAtom& atom = q.atoms()[ap.atom_index];
    AtomCode ac;
    ac.relation = InternRelation(p, atom.relation);
    ac.op_idx = static_cast<int32_t>(ai) + 1;
    ac.arity = atom.args.size();

    std::vector<bool> pos_bound(ac.arity, false);
    for (size_t pos = 0; pos < ac.arity; ++pos) {
      const Term& t = atom.args[pos];
      Slot s;
      if (t.is_const()) {
        s.kind = Slot::Kind::kConst;
        s.index = InternConst(p, t.constant());
        pos_bound[pos] = true;
      } else if (bound.count(t.var())) {
        s.kind = Slot::Kind::kReg;
        s.reg = var_regs.at(t.var());
        pos_bound[pos] = true;
      }
      ac.seed.push_back(s);
    }
    for (const AtomChaseStep& step : ap.steps) {
      ChaseStepCode sc;
      sc.statement = step.statement;
      sc.key_positions = step.key_positions;
      sc.value_positions = step.value_positions;
      sc.key_layout = Relation::CanonicalPositions(step.key_positions);
      sc.value_layout = Relation::CanonicalPositions(step.value_positions);
      for (size_t pos : sc.key_layout) {
        if (pos >= ac.arity || !pos_bound[pos]) {
          return Status::Unimplemented(
              "chase step key position is not yet bound");
        }
      }
      // Every candidate at this step has the same bound positions, so
      // check-or-bind per value position is decided here, not per row.
      for (size_t pos : sc.value_layout) {
        if (pos >= ac.arity) {
          return Status::Unimplemented("chase step value position out of range");
        }
        sc.value_check.push_back(pos_bound[pos] ? 1 : 0);
        pos_bound[pos] = true;
      }
      ac.steps.push_back(std::move(sc));
    }
    for (size_t pos = 0; pos < ac.arity; ++pos) {
      if (!pos_bound[pos]) {
        return Status::Unimplemented("chase leaves an atom position unbound");
      }
    }
    if (ap.needs_verification) {
      ac.needs_verification = true;
      ac.verify_statement = ap.verify_statement;
      ac.verify_positions = Relation::CanonicalPositions(ap.verify_key_positions);
    }

    std::set<Variable> local_bound(bound.begin(), bound.end());
    for (size_t pos = 0; pos < ac.arity; ++pos) {
      const Term& t = atom.args[pos];
      UnifyStep s;
      if (t.is_const()) {
        s.kind = UnifyStep::Kind::kSkip;
      } else if (local_bound.count(t.var())) {
        s.kind = UnifyStep::Kind::kCheckReg;
        s.reg = var_regs.at(t.var());
      } else {
        SI_ASSIGN_OR_RETURN(Reg r, AllocReg(p, t.var(), &var_regs));
        s.kind = UnifyStep::Kind::kBindReg;
        s.reg = r;
        local_bound.insert(t.var());
      }
      ac.unify.push_back(s);
    }
    bound = VarSet(local_bound.begin(), local_bound.end());
    p->atoms.push_back(std::move(ac));
  }

  for (const Term& h : q.head()) {
    if (h.is_const()) continue;
    if (p->params.count(h.var())) continue;
    auto it = var_regs.find(h.var());
    if (it == var_regs.end()) {
      return Status::Unimplemented("head variable '" + h.var().name() +
                                   "' is not bound by the chase");
    }
    p->embed_head_regs.push_back(it->second);
  }
  if (p->num_regs == 0) p->num_regs = 1;
  return std::shared_ptr<const CompiledProgram>(std::move(prog));
}

std::shared_ptr<const CompiledProgram> CompiledPlanSet::GetOrCompilePlain(
    const FoQuery& q,
    const std::shared_ptr<const ControllabilityAnalysis>& analysis,
    const VarSet& param_vars, std::string* why, bool* failed) {
  if (failed != nullptr) *failed = false;
  std::lock_guard<std::mutex> lock(mu_);
  PlanSlot& slot = slots_[VarSetToString(param_vars)];
  ++slot.sightings;
  if (slot.program != nullptr) {
    if (why != nullptr) why->clear();
    return slot.program;
  }
  if (slot.failed) {
    if (why != nullptr) *why = slot.reason;
    if (failed != nullptr) *failed = true;
    return nullptr;
  }
  if (slot.sightings < 2) {
    if (why != nullptr) *why = "auto: deferred until second sighting";
    return nullptr;
  }
  Result<std::shared_ptr<const CompiledProgram>> result =
      CompilePlain(q, analysis, param_vars);
  if (result.ok()) {
    slot.program = std::move(result).ValueOrDie();
    ++compiles_;
    if (why != nullptr) why->clear();
    return slot.program;
  }
  slot.failed = true;
  slot.reason = result.status().message();
  if (why != nullptr) *why = slot.reason;
  if (failed != nullptr) *failed = true;
  return nullptr;
}

uint64_t CompiledPlanSet::compiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return compiles_;
}

}  // namespace scalein::exec
