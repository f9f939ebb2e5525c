// Compiled (executable) form of a pattern query, plus the analyzer that
// produces it from a parse tree and a TypeRegistry.
//
// Semantics fixed here and relied upon by every engine and the oracle:
//
//  * A match binds one event to every positive step. Timestamps across
//    positive steps are STRICTLY increasing in pattern order (equal
//    timestamps never sequence).
//  * Window: last.ts − first.ts <= window (first/last positive bindings).
//  * A negated step `!C c` between positive steps p and q invalidates a
//    candidate match iff some event of type C exists with
//    p.ts < c.ts < q.ts (strict on both sides) satisfying every WHERE
//    conjunct that references `c`. Negated steps must be interior: the
//    first and last steps of a pattern must be positive.
//  * The WHERE clause is split at top-level ANDs into conjuncts
//    ("predicates"). A predicate may reference at most one negated step.
//    Inside a conjunct arbitrary OR / NOT / comparisons are allowed.
//
// The compiled form resolves every `binding.attr` to a (step, slot) pair
// and type-checks comparisons, so engines evaluate predicates without
// any name lookups or type errors at runtime.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "event/event.hpp"
#include "query/ast.hpp"

namespace oosp {

class QueryAnalysisError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ResolvedOperand {
  bool is_literal = false;
  Value literal;         // valid when is_literal
  std::size_t step = 0;  // valid when !is_literal
  std::size_t slot = 0;

  // Same literal (value AND type, since 5 and 5.0 compare differently
  // against a large int) or same (step, slot).
  bool operator==(const ResolvedOperand& o) const noexcept;
};

// One top-level conjunct of the WHERE clause, in evaluable form.
class CompiledPredicate {
 public:
  // Evaluates against a binding vector indexed by *step index* (pattern
  // order, negated steps included). Every step referenced by this
  // predicate must be non-null; other entries are ignored.
  bool eval(std::span<const Event* const> bindings) const;

  // Sorted, de-duplicated step indices referenced.
  const std::vector<std::size_t>& steps() const noexcept { return steps_; }
  bool references(std::size_t step) const noexcept;

  // True when no negated step is referenced.
  bool positive_only() const noexcept { return positive_only_; }

  const std::string& text() const noexcept { return text_; }

  // Structural equality over resolved operands, operators and steps —
  // not text: `a.val < b.val` means different things when the pattern
  // binds `a` and `b` to swapped steps.
  bool operator==(const CompiledPredicate& o) const noexcept {
    return root_ == o.root_ && steps_ == o.steps_ && positive_only_ == o.positive_only_;
  }

 private:
  friend class Analyzer;

  struct Node {
    BoolExpr::Kind kind = BoolExpr::Kind::kCmp;
    // kCmp payload:
    ResolvedOperand lhs, rhs;
    CmpOp op = CmpOp::kEq;
    std::vector<Node> children;

    bool operator==(const Node&) const = default;
  };

  static bool eval_node(const Node& n, std::span<const Event* const> bindings);

  Node root_;
  std::vector<std::size_t> steps_;
  bool positive_only_ = true;
  std::string text_;
};

struct CompiledStep {
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  TypeId type = kInvalidType;
  std::string binding;
  bool negated = false;

  // For negated steps: pattern indices of the adjacent positive steps.
  std::size_t prev_positive = npos;
  std::size_t next_positive = npos;

  // Indices (into CompiledQuery::predicates()) of conjuncts that
  // reference only this step — evaluable at scan time.
  std::vector<std::size_t> local_predicates;
};

// Resolved form of an AGG query. The compiled query still carries one
// positive step (the input type, binding "e") so routing, relevance and
// partitioning reuse the pattern machinery unchanged.
struct AggSpec {
  AggFn fn = AggFn::kCount;
  TypeId type = kInvalidType;
  std::size_t value_slot = CompiledStep::npos;  // npos for count
  ValueType value_type = ValueType::kInt;
  bool has_key = false;
  std::size_t key_slot = CompiledStep::npos;
  Timestamp slide = 0;
};

class CompiledQuery {
 public:
  const std::vector<CompiledStep>& steps() const noexcept { return steps_; }
  const CompiledStep& step(std::size_t i) const { return steps_.at(i); }
  std::size_t num_steps() const noexcept { return steps_.size(); }

  // Pattern indices of positive steps, in pattern order.
  const std::vector<std::size_t>& positive_steps() const noexcept { return positive_; }
  std::size_t num_positive() const noexcept { return positive_.size(); }
  bool has_negation() const noexcept { return positive_.size() != steps_.size(); }

  // Pattern index of the last positive step (the construction trigger).
  std::size_t trigger_step() const noexcept { return positive_.back(); }
  std::size_t first_step() const noexcept { return positive_.front(); }

  const std::vector<CompiledPredicate>& predicates() const noexcept { return predicates_; }

  Timestamp window() const noexcept { return window_; }

  // Steps (pattern indices) that accept events of type `t`; empty when
  // the type is irrelevant to this query.
  std::span<const std::size_t> steps_for_type(TypeId t) const noexcept;
  bool relevant(TypeId t) const noexcept { return !steps_for_type(t).empty(); }

  // Event types of the positive steps, in pattern order — the query's
  // SEQ chain as the shared-scan planner (runtime/planner.hpp) sees it.
  // A type may repeat when the pattern matches it at several positions.
  std::vector<TypeId> positive_type_chain() const;

  // The single equi-join slot every step accepting type `t` keys on, or
  // CompiledStep::npos when the query is not partitionable, the type is
  // irrelevant, or two steps of the type key on different attributes.
  // A shared scan keeps ONE stack per (type, key shard), so queries can
  // only share a partitioned scan when this agrees per overlapping type.
  std::size_t uniform_partition_slot(TypeId t) const noexcept;

  // Equi-join partitioning: when the WHERE clause forces one attribute of
  // every positive step into a single equality class, partition_slots()
  // returns, per pattern step, the slot of that attribute (or npos for
  // steps outside the class — possible only for negated steps).
  bool partitionable() const noexcept { return partitionable_; }
  const std::vector<std::size_t>& partition_slots() const noexcept { return partition_slots_; }
  // Every step, negated ones included, keys on the equality class, so a
  // shard of hash-partitioned state is self-contained. Engines partition
  // exactly when this holds and EngineOptions::partition_by_key is set.
  bool keys_every_step() const noexcept;

  // Aggregation queries compile to an AggSpec plus the single positive
  // step above; pattern-only machinery (shared scans, negation) must not
  // see them, which the planner enforces.
  bool is_agg() const noexcept { return agg_.has_value(); }
  const AggSpec& agg() const { return agg_.value(); }

  const std::string& text() const noexcept { return text_; }

 private:
  friend class Analyzer;

  std::vector<CompiledStep> steps_;
  std::vector<std::size_t> positive_;
  std::vector<CompiledPredicate> predicates_;
  Timestamp window_ = 0;
  std::vector<std::vector<std::size_t>> type_to_steps_;  // indexed by TypeId
  bool partitionable_ = false;
  std::vector<std::size_t> partition_slots_;
  std::optional<AggSpec> agg_;
  std::string text_;
};

// Resolves, type-checks and compiles `parsed` against `registry`.
// Throws QueryAnalysisError on any semantic violation.
CompiledQuery compile_query(const ParsedQuery& parsed, const TypeRegistry& registry);

// Convenience: parse + compile.
CompiledQuery compile_query(std::string_view text, const TypeRegistry& registry);

// Parse + compile into the shared form EngineContext / Session take.
std::shared_ptr<const CompiledQuery> compile_query_shared(std::string_view text,
                                                          const TypeRegistry& registry);

}  // namespace oosp
