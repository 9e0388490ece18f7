#ifndef SCALEIN_EXEC_COMPILER_H_
#define SCALEIN_EXEC_COMPILER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/bounded_eval.h"
#include "core/controllability.h"
#include "core/embedded_controllability.h"
#include "exec/bytecode.h"
#include "query/formula.h"
#include "util/status.h"

namespace scalein::exec {

/// Lowers a §4 plain-controllability derivation into register bytecode.
///
/// Supported shape (covers every derivation the parser's FO queries produce
/// on the hot path): a chain of ∃-wrappers over one conjunction of
/// atom/condition leaves with atom/condition negations, or a bare leaf —
///   exists* ( and(leaf+; leaf*) | leaf ),  leaf := atom | condition.
/// Derivations using the "or"/"forall" rules, nested non-leaf conjuncts, or
/// other unsupported structure are rejected with a reason (the caller falls
/// back to the interpreter — a sanctioned path counted by
/// `exec.compiled_fallbacks`). The compiled program issues the *identical*
/// sequence of metered charges as the interpreter, so answers, TripInfo,
/// per-op/per-relation accounting, and sealed certificates are byte-equal.
///
/// `analysis` is retained by the returned program (the bytecode points into
/// the analysis' access statements and formulas).
Result<std::shared_ptr<const CompiledProgram>> CompilePlain(
    const FoQuery& q,
    std::shared_ptr<const ControllabilityAnalysis> analysis,
    const VarSet& param_vars);

/// Lowers a Proposition 4.5 embedded chase plan into register bytecode —
/// the only chase engine: BoundedEvaluator::EvaluateEmbedded* compile with
/// this and run the VM. Rejects non-scale-independent analyses with
/// FailedPrecondition; any atom arity is accepted.
Result<std::shared_ptr<const CompiledProgram>> CompileEmbedded(
    std::shared_ptr<const EmbeddedCqAnalysis> analysis);

/// The compiled-plan side of one AnalysisCache entry: programs per parameter
/// set, living and dying with the cached derivation. The cache drops the
/// whole entry on DDL/env-drift/eviction, so a program can never outlive (or
/// lag behind) the analysis it was lowered from — the invalidation story of
/// the derivation and its bytecode is one object.
///
/// Thread-safe. A program is compiled on the *second* sighting of a
/// parameter-set key (first sightings defer — one-off queries never pay
/// compilation). Compile failures are cached per key with their reason, so
/// an unsupported shape costs one rejection, not one per request.
class CompiledPlanSet {
 public:
  /// The compiled plain program for `param_vars`, or nullptr with `*why`
  /// explaining the deferral ("auto: deferred until second sighting") or
  /// the failure ("unsupported: ..."). `*failed` (optional) is true only for
  /// genuine compile failures — the fallback-counter signal.
  std::shared_ptr<const CompiledProgram> GetOrCompilePlain(
      const FoQuery& q,
      const std::shared_ptr<const ControllabilityAnalysis>& analysis,
      const VarSet& param_vars, std::string* why, bool* failed = nullptr);

  /// Number of successful compilations (tests assert recompile-after-DDL).
  uint64_t compiles() const;

 private:
  struct PlanSlot {
    std::shared_ptr<const CompiledProgram> program;
    bool failed = false;
    std::string reason;
    uint32_t sightings = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, PlanSlot> slots_;
  uint64_t compiles_ = 0;
};

}  // namespace scalein::exec

#endif  // SCALEIN_EXEC_COMPILER_H_
