// Copyright 2026 The streambid Authors

#include "stream/engine.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "stream/operators/distinct.h"
#include "stream/operators/join.h"
#include "stream/operators/project.h"
#include "stream/operators/topk.h"
#include "stream/operators/union_op.h"

namespace streambid::stream {

/// One runtime graph node: either a source tap (op == nullptr) or an
/// operator instance. Nodes are owned by the signature map; topo_ holds
/// raw pointers in creation (= topological) order.
struct Engine::Node {
  std::string signature;
  OperatorPtr op;          // Null for source taps.
  int source_index = -1;   // Valid for source taps.
  std::vector<std::pair<Node*, int>> downstream;  // (consumer, port).
  std::vector<std::pair<int, Tuple>> inbox;       // (port, tuple).
  std::set<int> subscribers;  // Query ids whose plans include this node.
  std::set<int> sink_of;      // Query ids whose output node is this.
  std::vector<SinkStats*> sinks;  // &sinks_[q] for each q in sink_of.
  double run_cost = 0.0;      // Cost consumed during the current Run().
  double total_cost = 0.0;
  int64_t processed = 0;
};

Engine::Engine(EngineOptions options) : options_(options) {
  STREAMBID_CHECK_GT(options_.capacity, 0.0);
  STREAMBID_CHECK_GT(options_.tick, 0.0);
}

Engine::~Engine() = default;

void Engine::SetCapacity(double capacity) {
  STREAMBID_CHECK_GT(capacity, 0.0);
  options_.capacity = capacity;
}

Status Engine::RegisterSource(StreamSourcePtr source) {
  STREAMBID_CHECK(source != nullptr);
  const std::string& name = source->name();
  if (source_index_.count(name) > 0) {
    return Status::AlreadyExists("source already registered: " + name);
  }
  source_index_[name] = static_cast<int>(sources_.size());
  sources_.push_back(std::move(source));
  held_.emplace_back();
  return Status::Ok();
}

const StreamSource* Engine::source(const std::string& name) const {
  auto it = source_index_.find(name);
  return it == source_index_.end() ? nullptr
                                   : sources_[static_cast<size_t>(it->second)]
                                         .get();
}

Result<OperatorPtr> Engine::MakeOperator(
    const OpSpec& spec, const std::vector<SchemaPtr>& inputs) const {
  // Parameter checks are written !(x > 0) so that NaN fails them too.
  const double cost = spec.cost_per_tuple();
  switch (spec.kind) {
    case OpKind::kSource:
      return Status::Internal("source specs have no operator");
    case OpKind::kSelect: {
      if (!inputs[0]->HasField(spec.field)) {
        return Status::InvalidArgument("select: unknown field " +
                                       spec.field);
      }
      return OperatorPtr(new SelectOperator(inputs[0], spec.field,
                                            spec.compare_op, spec.operand,
                                            cost));
    }
    case OpKind::kProject: {
      for (const std::string& f : spec.fields) {
        if (!inputs[0]->HasField(f)) {
          return Status::InvalidArgument("project: unknown field " + f);
        }
      }
      return OperatorPtr(new ProjectOperator(inputs[0], spec.fields, cost));
    }
    case OpKind::kMap: {
      if (!inputs[0]->HasField(spec.field)) {
        return Status::InvalidArgument("map: unknown field " + spec.field);
      }
      if (spec.map_fn == MapFn::kDiv && spec.map_operand == 0.0) {
        return Status::InvalidArgument("map: division by zero");
      }
      return OperatorPtr(new MapOperator(inputs[0], spec.field, spec.map_fn,
                                         spec.map_operand,
                                         spec.output_field, cost));
    }
    case OpKind::kAggregate: {
      if (spec.agg_fn != AggFn::kCount || !spec.field.empty()) {
        if (!inputs[0]->HasField(spec.field)) {
          return Status::InvalidArgument("aggregate: unknown field " +
                                         spec.field);
        }
      }
      if (!spec.group_field.empty() &&
          !inputs[0]->HasField(spec.group_field)) {
        return Status::InvalidArgument("aggregate: unknown group field " +
                                       spec.group_field);
      }
      if (!(spec.window.slide > 0.0 &&
            spec.window.slide <= spec.window.size)) {
        return Status::InvalidArgument("aggregate: need 0 < slide <= size");
      }
      return OperatorPtr(new AggregateOperator(inputs[0], spec.agg_fn,
                                               spec.field, spec.group_field,
                                               spec.window, cost));
    }
    case OpKind::kJoin: {
      if (!inputs[0]->HasField(spec.left_key)) {
        return Status::InvalidArgument("join: unknown left key " +
                                       spec.left_key);
      }
      if (!inputs[1]->HasField(spec.right_key)) {
        return Status::InvalidArgument("join: unknown right key " +
                                       spec.right_key);
      }
      if (!(spec.join_window > 0.0)) {
        return Status::InvalidArgument("join: window must be positive");
      }
      return OperatorPtr(new JoinOperator(inputs[0], inputs[1],
                                          spec.left_key, spec.right_key,
                                          spec.join_window, cost));
    }
    case OpKind::kUnion: {
      if (!(*inputs[0] == *inputs[1])) {
        return Status::InvalidArgument("union: input schemas differ");
      }
      return OperatorPtr(new UnionOperator(inputs[0], inputs[1], cost));
    }
    case OpKind::kTopK: {
      if (!inputs[0]->HasField(spec.field)) {
        return Status::InvalidArgument("topk: unknown rank field " +
                                       spec.field);
      }
      if (spec.top_k <= 0) {
        return Status::InvalidArgument("topk: k must be positive");
      }
      if (!(spec.window.size > 0.0)) {
        return Status::InvalidArgument("topk: window must be positive");
      }
      return OperatorPtr(new TopKOperator(inputs[0], spec.top_k,
                                          spec.field, spec.window.size,
                                          cost));
    }
    case OpKind::kDistinct: {
      if (!inputs[0]->HasField(spec.field)) {
        return Status::InvalidArgument("distinct: unknown key field " +
                                       spec.field);
      }
      if (!(spec.window.size > 0.0)) {
        return Status::InvalidArgument("distinct: window must be positive");
      }
      return OperatorPtr(new DistinctOperator(inputs[0], spec.field,
                                              spec.window.size, cost));
    }
  }
  return Status::Internal("unknown operator kind");
}

Result<std::vector<Engine::CompiledNode>> Engine::Compile(
    const QueryPlan& plan) const {
  STREAMBID_RETURN_IF_ERROR(plan.Validate());
  // Bottom-up in plan order, without touching engine state.
  std::vector<CompiledNode> compiled(plan.nodes.size());
  std::vector<SchemaPtr> inputs;
  for (size_t i = 0; i < plan.nodes.size(); ++i) {
    const QueryPlan::Node& pn = plan.nodes[i];
    CompiledNode& node = compiled[i];
    if (pn.spec.kind == OpKind::kSource) {
      auto src = source_index_.find(pn.spec.source_name);
      if (src == source_index_.end()) {
        return Status::NotFound("unknown source: " + pn.spec.source_name);
      }
      node.source_index = src->second;
      node.schema = sources_[static_cast<size_t>(src->second)]->schema();
      continue;
    }
    inputs.clear();
    for (int in : pn.inputs) {
      inputs.push_back(compiled[static_cast<size_t>(in)].schema);
    }
    STREAMBID_ASSIGN_OR_RETURN(node.op, MakeOperator(pn.spec, inputs));
    node.schema = node.op->output_schema();
  }
  return compiled;
}

Result<SchemaPtr> Engine::DeriveOutputSchema(const QueryPlan& plan) const {
  STREAMBID_ASSIGN_OR_RETURN(std::vector<CompiledNode> compiled,
                             Compile(plan));
  return compiled[static_cast<size_t>(plan.output_node)].schema;
}

Status Engine::InstallQuery(int query_id, const QueryPlan& plan) {
  if (sinks_.count(query_id) > 0) {
    return Status::AlreadyExists("query id already installed: " +
                                 std::to_string(query_id));
  }
  STREAMBID_ASSIGN_OR_RETURN(std::vector<CompiledNode> compiled,
                             Compile(plan));

  // Nothing below can fail. Link the nodes reachable from the output in
  // depth-first post-order, inputs first in port order, so topo_ stays
  // topological; every visited node gains the subscriber, and a node
  // already running under the same signature is reused.
  std::vector<std::string> sigs = plan.NodeSignatures();
  std::vector<Node*> linked(plan.nodes.size(), nullptr);
  auto link = [&](auto& self, int idx) -> Node* {
    const size_t i = static_cast<size_t>(idx);
    if (linked[i] != nullptr) return linked[i];
    const std::vector<int>& inputs = plan.nodes[i].inputs;
    for (int in : inputs) self(self, in);
    auto it = nodes_.find(sigs[i]);
    if (it != nodes_.end()) {
      it->second->subscribers.insert(query_id);
      return linked[i] = it->second.get();
    }
    auto node = std::make_unique<Node>();
    node->signature = sigs[i];
    node->op = std::move(compiled[i].op);
    node->source_index = compiled[i].source_index;
    node->subscribers.insert(query_id);
    Node* raw = node.get();
    for (size_t port = 0; port < inputs.size(); ++port) {
      linked[static_cast<size_t>(inputs[port])]->downstream.push_back(
          {raw, static_cast<int>(port)});
    }
    nodes_.emplace(std::move(sigs[i]), std::move(node));
    topo_.push_back(raw);
    return linked[i] = raw;
  };
  Node* out = link(link, plan.output_node);
  out->sink_of.insert(query_id);
  sinks_[query_id] = SinkStats{};
  BindSinks(out);
  return Status::Ok();
}

Status Engine::UninstallQuery(int query_id) {
  if (sinks_.erase(query_id) == 0) {
    return Status::NotFound("query not installed: " +
                            std::to_string(query_id));
  }
  for (Node* node : topo_) {
    node->subscribers.erase(query_id);
    if (node->sink_of.erase(query_id) > 0) BindSinks(node);
  }
  // Destroy orphaned nodes (reverse topological order so downstream
  // edges are unhooked before their targets die).
  for (auto it = topo_.rbegin(); it != topo_.rend();) {
    Node* node = *it;
    if (!node->subscribers.empty()) {
      ++it;
      continue;
    }
    // Unhook from upstream.
    for (Node* up : topo_) {
      auto& ds = up->downstream;
      ds.erase(std::remove_if(ds.begin(), ds.end(),
                              [node](const std::pair<Node*, int>& e) {
                                return e.first == node;
                              }),
               ds.end());
    }
    const std::string sig = node->signature;
    it = decltype(it)(topo_.erase(std::next(it).base()));
    nodes_.erase(sig);
  }
  return Status::Ok();
}

bool Engine::IsInstalled(int query_id) const {
  return sinks_.count(query_id) > 0;
}

std::vector<int> Engine::InstalledQueries() const {
  std::vector<int> out;
  out.reserve(sinks_.size());
  for (const auto& [id, stats] : sinks_) out.push_back(id);
  return out;
}

void Engine::BeginTransition() {
  if (in_transition_) return;
  in_transition_ = true;
  // Drain in-flight tuples through the network before modification
  // (§II: subnetwork queues empty through downstream connection
  // points).
  ProcessPass(now_);
}

Status Engine::CommitTransition() {
  if (!in_transition_) {
    return Status::FailedPrecondition("no transition in progress");
  }
  // Replay held tuples into the modified network before new arrivals.
  for (size_t s = 0; s < held_.size(); ++s) {
    for (Node* node : topo_) {
      if (node->source_index == static_cast<int>(s)) {
        for (const Tuple& t : held_[s]) node->inbox.emplace_back(0, t);
      }
    }
    held_[s].clear();
  }
  in_transition_ = false;
  ProcessPass(now_);
  return Status::Ok();
}

void Engine::BindSinks(Node* node) {
  node->sinks.clear();
  for (int qid : node->sink_of) node->sinks.push_back(&sinks_[qid]);
}

void Engine::Deliver(Node* node, Tuple&& tuple) {
  // Every recipient but the last shares the row; the last one takes
  // over the caller's handle.
  size_t recipients = node->downstream.size() + node->sinks.size();
  auto take = [&recipients, &tuple]() -> Tuple {
    if (--recipients > 0) return tuple;
    return std::move(tuple);
  };
  for (auto& [consumer, port] : node->downstream) {
    consumer->inbox.emplace_back(port, take());
  }
  for (SinkStats* sink : node->sinks) {
    ++sink->tuples;
    sink->recent.push_back(take());
    while (static_cast<int>(sink->recent.size()) > options_.sink_history) {
      sink->recent.pop_front();
    }
  }
}

double Engine::ProcessPass(VirtualTime now) {
  // Edges always point from earlier to later topo_ entries, so one
  // ordered pass drains everything, including window emissions. A node
  // never feeds its own inbox, so its batch can be swapped out whole,
  // and its outputs can wait until after AdvanceTime: they reach only
  // later nodes and sinks, in the order they were produced.
  double pass_cost = 0.0;
  for (Node* node : topo_) {
    batch_.swap(node->inbox);
    node->processed += static_cast<int64_t>(batch_.size());
    if (node->op == nullptr) {
      // Source tap: forward.
      for (auto& [port, tuple] : batch_) Deliver(node, std::move(tuple));
      batch_.clear();
      continue;
    }
    OperatorBase& op = *node->op;
    const double cost = op.cost_per_tuple();
    outputs_.clear();
    for (const auto& [port, tuple] : batch_) {
      op.Process(port, tuple, &outputs_);
      // Per-tuple sums: the float results must not depend on batching.
      node->run_cost += cost;
      node->total_cost += cost;
      pass_cost += cost;
    }
    op.RecordInput(static_cast<int64_t>(batch_.size()));
    batch_.clear();
    op.AdvanceTime(now, &outputs_);
    op.RecordOutput(static_cast<int64_t>(outputs_.size()));
    for (Tuple& out : outputs_) Deliver(node, std::move(out));
  }
  outputs_.clear();
  return pass_cost;
}

void Engine::Run(VirtualTime duration) {
  STREAMBID_CHECK_GE(duration, 0.0);
  for (Node* node : topo_) node->run_cost = 0.0;
  last_run_duration_ = duration;
  // Snapshot: a later SetCapacity (autoscaling) must not retroactively
  // rescale this run's utilization.
  last_run_capacity_ = options_.capacity;
  last_run_shed_ = 0;
  last_run_ingested_ = 0;
  shed_probability_ = 0.0;
  const double tick_budget = options_.capacity * options_.tick;
  const VirtualTime end = now_ + duration;
  while (now_ < end) {
    now_ = std::min(now_ + options_.tick, end);
    for (size_t s = 0; s < sources_.size(); ++s) {
      emitted_.clear();
      sources_[s]->EmitUntil(now_, &emitted_);
      if (emitted_.empty()) continue;
      if (in_transition_) {
        // Connection point holds arrivals during the transition.
        held_[s].insert(held_[s].end(), emitted_.begin(), emitted_.end());
        continue;
      }
      for (Node* node : topo_) {
        if (node->source_index == static_cast<int>(s)) {
          for (const Tuple& t : emitted_) {
            // Closed-loop tuple shedding (Aurora-style random drops):
            // the drop probability tracks last tick's overload ratio.
            if (options_.shed_on_overload && shed_probability_ > 0.0 &&
                shed_rng_.NextBool(shed_probability_)) {
              ++last_run_shed_;
              continue;
            }
            node->inbox.emplace_back(0, t);
            ++last_run_ingested_;
          }
        }
      }
    }
    if (!in_transition_) {
      const double tick_cost = ProcessPass(now_);
      if (options_.shed_on_overload && tick_budget > 0.0) {
        // The measured cost already reflects the current drop rate;
        // de-bias it to estimate the offered demand, then aim the drop
        // probability so post-shedding cost equals the budget.
        const double kept = 1.0 - shed_probability_;
        const double offered =
            kept > 1e-6 ? tick_cost / kept : tick_cost;
        const double target =
            offered > tick_budget ? 1.0 - tick_budget / offered : 0.0;
        // Fast-attack, fast-release controller.
        shed_probability_ = 0.5 * shed_probability_ + 0.5 * target;
      }
    }
  }
  last_run_cost_ = 0.0;
  for (Node* node : topo_) last_run_cost_ += node->run_cost;
}

const SinkStats* Engine::sink(int query_id) const {
  auto it = sinks_.find(query_id);
  return it == sinks_.end() ? nullptr : &it->second;
}

std::vector<OperatorLoadInfo> Engine::OperatorLoads() const {
  std::vector<OperatorLoadInfo> out;
  out.reserve(topo_.size());
  for (const Node* node : topo_) {
    OperatorLoadInfo info;
    info.signature = node->signature;
    info.is_source = node->op == nullptr;
    info.name = info.is_source
                    ? "source(" +
                          sources_[static_cast<size_t>(node->source_index)]
                              ->name() +
                          ")"
                    : node->op->name();
    info.cost_per_tuple =
        info.is_source ? 0.0 : node->op->cost_per_tuple();
    info.tuples_processed = node->processed;
    info.measured_load = last_run_duration_ > 0.0
                             ? node->run_cost / last_run_duration_
                             : 0.0;
    info.sharing_degree = static_cast<int>(node->subscribers.size());
    out.push_back(std::move(info));
  }
  return out;
}

Result<double> Engine::MeasuredLoad(const std::string& signature) const {
  auto it = nodes_.find(signature);
  if (it == nodes_.end()) {
    return Status::NotFound("no such operator: " + signature);
  }
  if (last_run_duration_ <= 0.0) {
    return Status::FailedPrecondition("engine has not run yet");
  }
  return it->second->run_cost / last_run_duration_;
}

double Engine::LastRunUtilization() const {
  if (last_run_duration_ <= 0.0 || last_run_capacity_ <= 0.0) return 0.0;
  return last_run_cost_ / (last_run_duration_ * last_run_capacity_);
}

int Engine::num_shared_nodes() const {
  int n = 0;
  for (const Node* node : topo_) {
    if (node->subscribers.size() > 1) ++n;
  }
  return n;
}

}  // namespace streambid::stream
