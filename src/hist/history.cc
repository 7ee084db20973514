#include "hist/history.h"

#include <algorithm>
#include <set>
#include <sstream>

#include "common/check.h"
#include "common/fnv.h"

namespace fabec::hist {

History::OpRef History::begin_read(std::uint64_t seq) {
  Operation op;
  op.kind = OpKind::kRead;
  op.invoke_seq = seq;
  ops_.push_back(op);
  return ops_.size() - 1;
}

History::OpRef History::begin_write(ValueId value, std::uint64_t seq) {
  FABEC_CHECK_MSG(value != kNil, "nil is never written (Appendix B)");
  Operation op;
  op.kind = OpKind::kWrite;
  op.value = value;
  op.invoke_seq = seq;
  ops_.push_back(op);
  return ops_.size() - 1;
}

void History::end_read(OpRef op, std::uint64_t seq,
                       std::optional<ValueId> returned) {
  Operation& o = ops_.at(op);
  FABEC_CHECK(o.kind == OpKind::kRead && o.end == OpEnd::kPending);
  o.end_seq = seq;
  if (returned.has_value()) {
    o.end = OpEnd::kReturned;
    o.value = returned;
  } else {
    o.end = OpEnd::kAborted;
  }
}

void History::end_write(OpRef op, std::uint64_t seq, bool ok) {
  Operation& o = ops_.at(op);
  FABEC_CHECK(o.kind == OpKind::kWrite && o.end == OpEnd::kPending);
  o.end_seq = seq;
  o.end = ok ? OpEnd::kReturned : OpEnd::kAborted;
}

void History::crash(OpRef op, std::uint64_t seq) {
  Operation& o = ops_.at(op);
  FABEC_CHECK(o.end == OpEnd::kPending);
  o.end_seq = seq;
  o.end = OpEnd::kCrashed;
}

namespace {

struct Edge {
  ValueId to = kNil;
  bool strict = false;
};

/// DFS-based cycle detection over the constraint graph. Any cycle through
/// two or more distinct values (regardless of strictness) is a violation:
/// v ≤ v' and v' ≤ v force v = v', impossible for distinct values.
class CycleFinder {
 public:
  explicit CycleFinder(const std::map<ValueId, std::vector<Edge>>& graph)
      : graph_(graph) {}

  bool has_cycle() {
    for (const auto& [node, edges] : graph_)
      if (color_.emplace(node, 0).first->second == 0 && visit(node))
        return true;
    return false;
  }

 private:
  bool visit(ValueId node) {
    color_[node] = 1;  // on stack
    auto it = graph_.find(node);
    if (it != graph_.end()) {
      for (const Edge& e : it->second) {
        if (e.to == node) continue;  // non-strict self-loop: harmless
        const int c = color_.emplace(e.to, 0).first->second;
        if (c == 1) return true;  // back edge: cycle
        if (c == 0 && visit(e.to)) return true;
      }
    }
    color_[node] = 2;  // done
    return false;
  }

  const std::map<ValueId, std::vector<Edge>>& graph_;
  std::map<ValueId, int> color_;
};

}  // namespace

CheckResult check_strict_linearizability(const History& history) {
  const auto& ops = history.operations();

  // ObservableH = values returned by successful reads ∪ values of writes
  // that returned OK, plus nil (Definition 5 takes V ⊇ ObservableH; the
  // minimal choice V = ObservableH ∪ {nil} imposes the fewest constraints,
  // so a conforming order exists iff one exists for this V).
  std::set<ValueId> observable;
  observable.insert(kNil);
  for (const Operation& op : ops) {
    if (op.end != OpEnd::kReturned || !op.value.has_value()) continue;
    observable.insert(*op.value);
  }

  std::map<ValueId, std::vector<Edge>> graph;
  for (ValueId v : observable) graph[v];  // materialize nodes
  // Condition (1): nil ≤ v.
  for (ValueId v : observable)
    if (v != kNil) graph[kNil].push_back(Edge{v, false});

  // Conditions (2)-(5) over every →H-ordered pair of operations whose
  // values are observable. Note crashed and aborted writes participate:
  // their end event orders them, and if their value was observed the
  // constraints bind exactly as for successful writes.
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& a = ops[i];
    if (!a.value.has_value() || !a.end_seq.has_value()) continue;
    if (observable.count(*a.value) == 0) continue;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      if (i == j) continue;
      const Operation& b = ops[j];
      if (!b.value.has_value()) continue;
      if (observable.count(*b.value) == 0) continue;
      if (*a.end_seq >= b.invoke_seq) continue;  // not a →H b
      const bool strict = b.kind == OpKind::kWrite;  // conditions (2), (5)
      if (strict && *a.value == *b.value) {
        return CheckResult{
            false, "strict constraint v < v forced (value re-ordered around "
                   "a write of itself)"};
      }
      graph[*a.value].push_back(Edge{*b.value, strict});
    }
  }

  CycleFinder finder(graph);
  if (finder.has_cycle()) {
    return CheckResult{false,
                       "constraint cycle: no conforming total order exists "
                       "(conditions (1)-(5) of Definition 5 conflict)"};
  }
  return CheckResult{};
}

std::uint64_t fingerprint(const History& history) {
  Fnv1a h;
  for (const Operation& op : history.operations()) {
    h.update_value(op.kind);
    h.update_value(op.value.has_value());
    h.update_value(op.value.value_or(kNil));
    h.update_value(op.invoke_seq);
    h.update_value(op.end_seq.has_value());
    h.update_value(op.end_seq.value_or(0));
    h.update_value(op.end);
  }
  return h.digest();
}

ValueId ValueRegistry::id_of(const Block& block) {
  const bool all_zero =
      std::all_of(block.begin(), block.end(),
                  [](std::uint8_t b) { return b == 0; });
  if (all_zero) return kNil;
  auto it = ids_.find(block);
  if (it == ids_.end()) it = ids_.emplace(block, next_++).first;
  return it->second;
}

std::string format_history(const std::vector<Operation>& ops) {
  static constexpr const char* kEnds[] = {"pending", "ok", "aborted",
                                          "crashed"};
  std::ostringstream os;
  auto print = [&os](const auto& v) {
    if (v.has_value()) os << *v; else os << "-";
  };
  for (const Operation& op : ops) {
    os << "  " << (op.kind == OpKind::kWrite ? "W" : "R") << " value=";
    print(op.value);
    os << " [" << op.invoke_seq << ", ";
    print(op.end_seq);
    os << "] " << kEnds[static_cast<int>(op.end)] << "\n";
  }
  return os.str();
}

Recorder::Op Recorder::begin(const std::vector<Key>& keys,
                             const std::vector<Block>& values) {
  FABEC_CHECK(values.empty() || values.size() == keys.size());
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = ++seq_;
  Op op;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    History& h = histories_[keys[i]];
    if (values.empty()) {
      op.parts.emplace_back(keys[i], h.begin_read(seq));
      continue;
    }
    const ValueId id = registry_.id_of(values[i]);
    written_.insert(id);
    op.parts.emplace_back(keys[i], h.begin_write(id, seq));
  }
  return op;
}

void Recorder::end_read(const Op& op, const std::vector<Block>& values) {
  FABEC_CHECK(values.empty() || values.size() == op.parts.size());
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = ++seq_;
  for (std::size_t i = 0; i < op.parts.size(); ++i) {
    const auto& [key, ref] = op.parts[i];
    std::optional<ValueId> id;
    if (!values.empty()) {
      id = registry_.id_of(values[i]);
      if (*id != kNil && written_.count(*id) == 0) unknown_reads_.insert(key);
    }
    histories_[key].end_read(ref, seq, id);
  }
}

void Recorder::end_write(const Op& op, bool ok) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = ++seq_;
  for (const auto& [key, ref] : op.parts)
    histories_[key].end_write(ref, seq, ok);
}

void Recorder::crash(const Op& op) {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t seq = ++seq_;
  for (const auto& [key, ref] : op.parts) histories_[key].crash(ref, seq);
}

std::vector<Recorder::Violation> Recorder::check() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Violation> out;
  for (const auto& [key, history] : histories_) {
    std::string message;
    if (unknown_reads_.count(key) != 0)
      message = "read returned a value no writer ever produced";
    else if (const CheckResult verdict =
                 check_strict_linearizability(history);
             !verdict.ok)
      message = verdict.violation;
    if (!message.empty())
      out.push_back(Violation{key, std::move(message), history.operations()});
  }
  return out;
}

std::size_t Recorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histories_.size();
}

History Recorder::history(Key key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histories_.find(key);
  return it == histories_.end() ? History{} : it->second;
}

std::uint64_t Recorder::fingerprint() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Fnv1a h;
  for (const auto& [key, history] : histories_) {
    h.update_value(key);
    h.update_value(hist::fingerprint(history));
  }
  return h.digest();
}

}  // namespace fabec::hist
