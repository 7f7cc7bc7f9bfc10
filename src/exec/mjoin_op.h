// The m-way pipelined hash join (m-join / STeM eddy), §4.1.
//
// Each input has an associated access module: a hash table for streamed
// inputs (tuples are inserted on arrival, probed by the others) or a
// wrapper probing a remote random-access source. When a tuple arrives on
// an input, it is inserted into that input's module and then probed
// through the remaining modules along a probe sequence that adapts to
// monitored join selectivities (the technique of STeMs [24] the paper
// adopts). Completed composites are pushed downstream.
//
// For the query state manager's epoch recovery (§6.2, Algorithm 2), an
// m-join can also mount *frozen* modules: borrowed hash tables restricted
// to entries that arrived before a given epoch, never inserted into.

#ifndef QSYS_EXEC_MJOIN_OP_H_
#define QSYS_EXEC_MJOIN_OP_H_

#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/exec/join_hash_table.h"
#include "src/exec/operator.h"
#include "src/query/expr.h"
#include "src/source/source_manager.h"

namespace qsys {

/// \brief Multi-way symmetric hash join over the atoms of one factored
/// plan component.
class MJoinOp : public Operator {
 public:
  /// `expr` is the component's (normalized, connected) expression;
  /// `adaptive` enables runtime probe-sequence reordering.
  MJoinOp(Expr expr, const Catalog* catalog, bool adaptive);

  /// Declares a streamed input covering `input_expr`'s atoms (which must
  /// be a subset of expr's). Returns the input port. Owns a fresh hash
  /// table.
  Result<int> AddStreamModule(const Expr& input_expr);

  /// Declares a *frozen* streamed input: a borrowed hash table whose
  /// entries with epoch >= `max_epoch_exclusive` are invisible, and into
  /// which arriving tuples are NOT inserted (they are replays of its own
  /// content). Used by recovery queries.
  Result<int> AddFrozenModule(const Expr& input_expr, JoinHashTable* table,
                              int max_epoch_exclusive);

  /// Declares a remote random-access module for one atom; probe sources
  /// (one per probed column) are obtained from `sources` under sharing
  /// scope `tag`.
  Result<int> AddProbeModule(const Atom& atom, SourceManager* sources,
                             int tag = 0);

  /// Validates that modules partition the expression's atoms, and
  /// precomputes slot maps and join bindings. Must be called once after
  /// all modules are added and before the first Consume.
  Status Finalize();

  void Consume(int port, const CompositeTuple& tuple,
               ExecContext& ctx) override;

  std::string Describe() const override;

  /// Downstream edge (a single consumer; fan-out goes through a SplitOp).
  void SetConsumer(Consumer c) { consumer_ = c; }
  const Consumer& consumer() const { return consumer_; }

  const Expr& expr() const { return expr_; }
  int num_modules() const { return static_cast<int>(modules_.size()); }

  /// Hash table of a streamed module (nullptr for probe modules).
  JoinHashTable* module_table(int port) {
    return modules_[port].table;
  }

  /// Module input expression (single-atom Expr for probe modules).
  const Expr& module_expr(int port) const {
    return modules_[port].input_expr;
  }
  bool module_is_stream(int port) const {
    return modules_[port].kind == ModuleKind::kStream;
  }

  /// Current probe order the operator would use from `port` (module
  /// indices, for tests and plan rendering).
  std::vector<int> CurrentProbeOrder(int port) const;

  /// Total bytes held by owned hash tables (cache accounting).
  int64_t StateSizeBytes() const;

  /// Observed output/probe fanout of a module (adaptivity monitor).
  double ModuleFanout(int port) const;

 private:
  enum class ModuleKind { kStream, kFrozen, kProbe };

  struct Binding {
    // The join edge as seen from this module: `outer` lives elsewhere in
    // the m-join (expr_ slot space), `inner` in the module (input slot
    // space + expr slot space).
    int outer_slot = -1;
    int outer_col = -1;
    int inner_slot_input = -1;
    int inner_slot_expr = -1;
    int inner_col = -1;
    /// Probe source keyed on inner_col (probe modules only).
    ProbeSource* probe = nullptr;
  };

  struct Module {
    ModuleKind kind = ModuleKind::kStream;
    Expr input_expr;
    std::vector<int> slot_map;  // input slot -> expr_ slot
    std::unique_ptr<JoinHashTable> owned_table;
    JoinHashTable* table = nullptr;  // owned or borrowed (frozen)
    int max_epoch_exclusive = JoinHashTable::kAllEpochs;
    std::vector<Binding> bindings;
    uint64_t atom_mask = 0;  // bits over expr_ slots
    // Selectivity monitor.
    int64_t probes = 0;
    int64_t outputs = 0;
  };

  /// Unpins hash tables borrowed by frozen modules (recovery retire).
  void OnDeactivate() override;

  int AddModuleCommon(ModuleKind kind, Expr input_expr);
  void Cascade(CompositeTuple& partial, uint64_t covered_mask,
               uint64_t remaining_modules, ExecContext& ctx);
  void Emit(CompositeTuple& full, ExecContext& ctx);

  Expr expr_;
  const Catalog* catalog_;
  bool adaptive_;
  bool finalized_ = false;
  std::vector<Module> modules_;
  struct PendingProbe {
    int port;
    SourceManager* sources;
    int tag;
  };
  std::vector<PendingProbe> probe_sources_pending_;
  Consumer consumer_;
};

}  // namespace qsys

#endif  // QSYS_EXEC_MJOIN_OP_H_
