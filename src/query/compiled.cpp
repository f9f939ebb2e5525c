#include "query/compiled.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "common/contracts.hpp"
#include "query/parser.hpp"

namespace oosp {

bool ResolvedOperand::operator==(const ResolvedOperand& o) const noexcept {
  if (is_literal != o.is_literal) return false;
  if (is_literal) return literal.type() == o.literal.type() && literal == o.literal;
  return step == o.step && slot == o.slot;
}

bool CompiledPredicate::references(std::size_t step) const noexcept {
  return std::binary_search(steps_.begin(), steps_.end(), step);
}

bool CompiledPredicate::eval_node(const Node& n, std::span<const Event* const> bindings) {
  switch (n.kind) {
    case BoolExpr::Kind::kCmp: {
      auto fetch = [&](const ResolvedOperand& o) -> const Value& {
        if (o.is_literal) return o.literal;
        const Event* e = bindings[o.step];
        OOSP_ASSERT(e != nullptr);
        return e->attr(o.slot);
      };
      const int c = fetch(n.lhs).compare(fetch(n.rhs));
      switch (n.op) {
        case CmpOp::kEq: return c == 0;
        case CmpOp::kNe: return c != 0;
        case CmpOp::kLt: return c < 0;
        case CmpOp::kLe: return c <= 0;
        case CmpOp::kGt: return c > 0;
        case CmpOp::kGe: return c >= 0;
      }
      return false;
    }
    case BoolExpr::Kind::kAnd:
      for (const Node& k : n.children)
        if (!eval_node(k, bindings)) return false;
      return true;
    case BoolExpr::Kind::kOr:
      for (const Node& k : n.children)
        if (eval_node(k, bindings)) return true;
      return false;
    case BoolExpr::Kind::kNot:
      return !eval_node(n.children.front(), bindings);
  }
  return false;
}

bool CompiledPredicate::eval(std::span<const Event* const> bindings) const {
  return eval_node(root_, bindings);
}

std::span<const std::size_t> CompiledQuery::steps_for_type(TypeId t) const noexcept {
  if (t >= type_to_steps_.size()) return {};
  return type_to_steps_[t];
}

std::vector<TypeId> CompiledQuery::positive_type_chain() const {
  std::vector<TypeId> chain;
  chain.reserve(positive_.size());
  for (const std::size_t s : positive_) chain.push_back(steps_[s].type);
  return chain;
}

bool CompiledQuery::keys_every_step() const noexcept {
  return partitionable_ &&
         std::none_of(partition_slots_.begin(), partition_slots_.end(),
                      [](std::size_t s) { return s == CompiledStep::npos; });
}

std::size_t CompiledQuery::uniform_partition_slot(TypeId t) const noexcept {
  if (!partitionable_) return CompiledStep::npos;
  std::size_t slot = CompiledStep::npos;
  for (const std::size_t s : steps_for_type(t)) {
    const std::size_t here = partition_slots_[s];
    if (here == CompiledStep::npos) return CompiledStep::npos;
    if (slot == CompiledStep::npos) slot = here;
    else if (slot != here) return CompiledStep::npos;
  }
  return slot;
}

namespace {

// Union-find over dense indices, used for equi-join key detection.
class UnionFind {
 public:
  std::size_t make() {
    parent_.push_back(parent_.size());
    return parent_.size() - 1;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

class Analyzer {
 public:
  Analyzer(const ParsedQuery& parsed, const TypeRegistry& registry)
      : parsed_(parsed), registry_(registry) {}

  CompiledQuery run() {
    if (parsed_.agg) {
      analyze_agg();
    } else {
      analyze_steps();
      analyze_where();
      detect_partition_key();
    }
    index_types();
    out_.window_ = parsed_.window;
    out_.text_ = to_text(parsed_);
    return std::move(out_);
  }

 private:
  [[noreturn]] static void fail(const std::string& msg) { throw QueryAnalysisError(msg); }

  void analyze_steps() {
    if (parsed_.steps.empty()) fail("pattern needs at least one step");
    for (const StepDecl& d : parsed_.steps) {
      CompiledStep s;
      s.type = registry_.lookup(d.type_name);
      if (s.type == kInvalidType) fail("unknown event type: " + d.type_name);
      if (d.binding.empty()) fail("step needs a binding name");
      if (binding_to_step_.count(d.binding))
        fail("duplicate binding name: " + d.binding);
      binding_to_step_.emplace(d.binding, out_.steps_.size());
      s.binding = d.binding;
      s.negated = d.negated;
      out_.steps_.push_back(std::move(s));
    }
    for (std::size_t i = 0; i < out_.steps_.size(); ++i)
      if (!out_.steps_[i].negated) out_.positive_.push_back(i);
    if (out_.positive_.empty()) fail("pattern needs at least one positive step");
    if (out_.steps_.front().negated)
      fail("first step must be positive (negation is interior-only)");
    if (out_.steps_.back().negated)
      fail("last step must be positive (negation is interior-only)");
    // Adjacent positive steps for each negated step.
    for (std::size_t i = 0; i < out_.steps_.size(); ++i) {
      if (!out_.steps_[i].negated) continue;
      std::size_t p = i;
      while (p > 0 && out_.steps_[--p].negated) {
      }
      std::size_t q = i;
      while (q + 1 < out_.steps_.size() && out_.steps_[++q].negated) {
      }
      OOSP_ASSERT(!out_.steps_[p].negated && !out_.steps_[q].negated);
      out_.steps_[i].prev_positive = p;
      out_.steps_[i].next_positive = q;
    }
  }

  void analyze_agg() {
    const AggDecl& a = *parsed_.agg;
    AggSpec spec;
    spec.fn = a.fn;
    spec.type = registry_.lookup(a.type_name);
    if (spec.type == kInvalidType) fail("unknown event type: " + a.type_name);
    const Schema& schema = registry_.schema(spec.type);
    if (a.fn != AggFn::kCount) {
      spec.value_slot = schema.slot(a.attr);
      if (spec.value_slot == Schema::npos)
        fail("type '" + a.type_name + "' has no attribute '" + a.attr + "'");
      spec.value_type = schema.field(spec.value_slot).type;
      if (spec.value_type != ValueType::kInt && spec.value_type != ValueType::kDouble)
        fail(std::string(to_string(a.fn)) + " needs a numeric attribute, but '" +
             a.attr + "' is " + std::string(to_string(spec.value_type)));
    }
    if (a.has_key) {
      spec.key_slot = schema.slot(a.key_attr);
      if (spec.key_slot == Schema::npos)
        fail("type '" + a.type_name + "' has no attribute '" + a.key_attr + "'");
    }
    spec.has_key = a.has_key;
    if (a.slide <= 0) fail("slide must be positive");
    if (a.slide > parsed_.window) fail("slide must not exceed the window");
    spec.slide = a.slide;
    // One positive step so routing / relevance / partitioning reuse the
    // pattern machinery; shards colocate a key's events exactly like a
    // single-step equi-join.
    CompiledStep s;
    s.type = spec.type;
    s.binding = "e";
    out_.steps_.push_back(std::move(s));
    out_.positive_ = {0};
    out_.partitionable_ = a.has_key;
    out_.partition_slots_ = {a.has_key ? spec.key_slot : CompiledStep::npos};
    out_.agg_ = spec;
  }

  ValueType operand_type(const ResolvedOperand& o) const {
    if (o.is_literal) return o.literal.type();
    return registry_.schema(out_.steps_[o.step].type).field(o.slot).type;
  }

  ResolvedOperand resolve_operand(const Operand& op) {
    ResolvedOperand r;
    if (const auto* lit = std::get_if<Value>(&op)) {
      r.is_literal = true;
      r.literal = *lit;
      return r;
    }
    const auto& ref = std::get<AttrRef>(op);
    const auto it = binding_to_step_.find(ref.binding);
    if (it == binding_to_step_.end()) fail("unknown binding: " + ref.binding);
    r.step = it->second;
    const Schema& schema = registry_.schema(out_.steps_[r.step].type);
    r.slot = schema.slot(ref.attr);
    if (r.slot == Schema::npos)
      fail("type of binding '" + ref.binding + "' has no attribute '" + ref.attr + "'");
    return r;
  }

  CompiledPredicate::Node compile_node(const BoolExpr& e, std::set<std::size_t>& steps) {
    CompiledPredicate::Node n;
    n.kind = e.kind;
    if (e.kind == BoolExpr::Kind::kCmp) {
      n.lhs = resolve_operand(e.cmp->lhs);
      n.op = e.cmp->op;
      n.rhs = resolve_operand(e.cmp->rhs);
      const ValueType lt = operand_type(n.lhs), rt = operand_type(n.rhs);
      const bool numeric = (lt == ValueType::kInt || lt == ValueType::kDouble) &&
                           (rt == ValueType::kInt || rt == ValueType::kDouble);
      if (!numeric && lt != rt)
        fail("incomparable operand types (" + std::string(to_string(lt)) + " vs " +
             std::string(to_string(rt)) + ") in: " + to_text(e));
      if (!n.lhs.is_literal) steps.insert(n.lhs.step);
      if (!n.rhs.is_literal) steps.insert(n.rhs.step);
      return n;
    }
    for (const BoolExpr& kid : e.children) n.children.push_back(compile_node(kid, steps));
    return n;
  }

  void add_conjunct(const BoolExpr& e) {
    CompiledPredicate p;
    std::set<std::size_t> steps;
    p.root_ = compile_node(e, steps);
    p.steps_.assign(steps.begin(), steps.end());
    if (p.steps_.empty())
      fail("predicate references no event attribute: " + to_text(e));
    std::size_t negated_refs = 0;
    for (std::size_t s : p.steps_)
      if (out_.steps_[s].negated) ++negated_refs;
    if (negated_refs > 1)
      fail("a predicate may reference at most one negated step: " + to_text(e));
    p.positive_only_ = negated_refs == 0;
    p.text_ = to_text(e);
    const std::size_t index = out_.predicates_.size();
    if (p.steps_.size() == 1)
      out_.steps_[p.steps_.front()].local_predicates.push_back(index);
    out_.predicates_.push_back(std::move(p));
  }

  void analyze_where() {
    if (!parsed_.where) return;
    // Split the top-level AND spine into independent conjuncts.
    std::vector<const BoolExpr*> work{&*parsed_.where};
    std::vector<const BoolExpr*> conjuncts;
    while (!work.empty()) {
      const BoolExpr* e = work.back();
      work.pop_back();
      if (e->kind == BoolExpr::Kind::kAnd) {
        for (auto it = e->children.rbegin(); it != e->children.rend(); ++it)
          work.push_back(&*it);
      } else {
        conjuncts.push_back(e);
      }
    }
    for (const BoolExpr* e : conjuncts) add_conjunct(*e);
  }

  // Detects an attribute equality class spanning every positive step: the
  // enabling condition for hash-partitioned stacks (DESIGN.md §3.3 opt ii).
  //
  // SOUNDNESS: a match binds only positive steps, so only equality edges
  // between two POSITIVE steps constrain the match — an equality chain
  // routed through a negated binding (a.k == b.k AND b.k == c.k with !B b)
  // does NOT imply a.k == c.k for a valid match (no B may exist at all).
  // The class is therefore built from positive-positive edges only;
  // negated steps may then attach to the finished class through their own
  // edges so their buffers can be routed to the same shard.
  void detect_partition_key() {
    out_.partition_slots_.assign(out_.steps_.size(), CompiledStep::npos);
    std::map<std::pair<std::size_t, std::size_t>, std::size_t> node_of;  // (step,slot)→uf idx
    UnionFind uf;
    auto node = [&](std::size_t step, std::size_t slot) {
      const auto key = std::make_pair(step, slot);
      auto it = node_of.find(key);
      if (it != node_of.end()) return it->second;
      const std::size_t n = uf.make();
      node_of.emplace(key, n);
      return n;
    };
    // An equality edge usable for partitioning: bare `x.a == y.b` conjunct
    // with identical static types (so one hash function serves the class).
    auto eq_edge = [&](const CompiledPredicate& p)
        -> std::optional<std::pair<ResolvedOperand, ResolvedOperand>> {
      const auto& root = p.root_;
      if (root.kind != BoolExpr::Kind::kCmp || root.op != CmpOp::kEq) return std::nullopt;
      if (root.lhs.is_literal || root.rhs.is_literal) return std::nullopt;
      if (operand_type(root.lhs) != operand_type(root.rhs)) return std::nullopt;
      return std::make_pair(root.lhs, root.rhs);
    };
    for (const CompiledPredicate& p : out_.predicates_) {
      const auto edge = eq_edge(p);
      if (!edge) continue;
      if (out_.steps_[edge->first.step].negated || out_.steps_[edge->second.step].negated)
        continue;  // positive-positive edges only
      uf.unite(node(edge->first.step, edge->first.slot),
               node(edge->second.step, edge->second.slot));
    }
    // Find a class covering every positive step.
    std::map<std::size_t, std::vector<std::pair<std::size_t, std::size_t>>> classes;
    for (const auto& [key, n] : node_of) classes[uf.find(n)].push_back(key);
    for (const auto& [cls, members] : classes) {
      std::vector<std::size_t> slot_for(out_.steps_.size(), CompiledStep::npos);
      std::size_t covered = 0;
      for (const auto& [step, slot] : members) {
        if (slot_for[step] == CompiledStep::npos) {
          slot_for[step] = slot;
          ++covered;  // members are positive steps by construction
        }
      }
      if (covered != out_.positive_.size()) continue;
      // Attach negated steps that equate directly to a class member.
      for (const CompiledPredicate& p : out_.predicates_) {
        const auto edge = eq_edge(p);
        if (!edge) continue;
        const auto [lhs, rhs] = *edge;
        for (const auto& [neg, pos] :
             {std::make_pair(lhs, rhs), std::make_pair(rhs, lhs)}) {
          if (!out_.steps_[neg.step].negated || out_.steps_[pos.step].negated) continue;
          if (slot_for[neg.step] != CompiledStep::npos) continue;
          const auto it = node_of.find({pos.step, pos.slot});
          if (it != node_of.end() && uf.find(it->second) == cls)
            slot_for[neg.step] = neg.slot;
        }
      }
      out_.partition_slots_ = std::move(slot_for);
      out_.partitionable_ = true;
      return;
    }
  }

  void index_types() {
    out_.type_to_steps_.assign(registry_.size(), {});
    for (std::size_t i = 0; i < out_.steps_.size(); ++i)
      out_.type_to_steps_[out_.steps_[i].type].push_back(i);
  }

  const ParsedQuery& parsed_;
  const TypeRegistry& registry_;
  CompiledQuery out_;
  std::unordered_map<std::string, std::size_t> binding_to_step_;
};

CompiledQuery compile_query(const ParsedQuery& parsed, const TypeRegistry& registry) {
  return Analyzer(parsed, registry).run();
}

CompiledQuery compile_query(std::string_view text, const TypeRegistry& registry) {
  return compile_query(parse_query(text), registry);
}

std::shared_ptr<const CompiledQuery> compile_query_shared(std::string_view text,
                                                          const TypeRegistry& registry) {
  return std::make_shared<const CompiledQuery>(compile_query(text, registry));
}

}  // namespace oosp
