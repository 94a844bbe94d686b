// Copyright 2026 The streambid Authors

#include "stream/query.h"

#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace streambid::stream {

std::string OpSpec::Signature() const {
  switch (kind) {
    case OpKind::kSource:
      return "source(" + source_name + ")";
    case OpKind::kSelect:
      return "select(" + field + CompareOpToken(compare_op) +
             operand.ToKey() + ")";
    case OpKind::kProject:
      return "project(" + Join(fields, ",") + ")";
    case OpKind::kMap:
      return "map(" + output_field + "=" + field + MapFnToken(map_fn) +
             std::to_string(map_operand) + ")";
    case OpKind::kAggregate:
      return std::string("agg(") + AggFnName(agg_fn) + "(" + field + ")" +
             (group_field.empty() ? "" : ",by=" + group_field) +
             ",w=" + std::to_string(window.size) + "," +
             std::to_string(window.slide) + ")";
    case OpKind::kJoin:
      return "join(" + left_key + "==" + right_key +
             ",w=" + std::to_string(join_window) + ")";
    case OpKind::kUnion:
      return "union()";
    case OpKind::kTopK:
      return "topk(" + std::to_string(top_k) + "," + field +
             ",w=" + std::to_string(window.size) + ")";
    case OpKind::kDistinct:
      return "distinct(" + field + ",w=" + std::to_string(window.size) +
             ")";
  }
  return "?";
}

double OpSpec::cost_per_tuple() const {
  if (cost_override > 0.0) return cost_override;
  switch (kind) {
    case OpKind::kSource:
      return 0.0;
    case OpKind::kSelect:
      return DefaultCosts::kSelect;
    case OpKind::kProject:
      return DefaultCosts::kProject;
    case OpKind::kMap:
      return DefaultCosts::kMap;
    case OpKind::kAggregate:
      return DefaultCosts::kAggregate;
    case OpKind::kJoin:
      return DefaultCosts::kJoin;
    case OpKind::kUnion:
      return DefaultCosts::kUnion;
    case OpKind::kTopK:
      return DefaultCosts::kTopK;
    case OpKind::kDistinct:
      return DefaultCosts::kDistinct;
  }
  return 0.0;
}

Status QueryPlan::Validate() const {
  if (nodes.empty()) {
    return Status::InvalidArgument("plan has no nodes");
  }
  if (output_node < 0 || output_node >= static_cast<int>(nodes.size())) {
    return Status::InvalidArgument("output node out of range");
  }
  bool has_source = false;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.spec.kind == OpKind::kSource) has_source = true;
    if (static_cast<int>(n.inputs.size()) != n.spec.expected_inputs()) {
      return Status::InvalidArgument(
          "node " + std::to_string(i) + " (" + n.spec.Signature() +
          ") expects " + std::to_string(n.spec.expected_inputs()) +
          " inputs, got " + std::to_string(n.inputs.size()));
    }
    for (int in : n.inputs) {
      if (in < 0 || in >= static_cast<int>(i)) {
        return Status::InvalidArgument(
            "node " + std::to_string(i) +
            " input must reference an earlier node, got " +
            std::to_string(in));
      }
    }
  }
  if (!has_source) {
    return Status::InvalidArgument("plan has no source node");
  }
  return Status::Ok();
}

std::vector<std::string> QueryPlan::NodeSignatures() const {
  std::vector<std::string> sigs;
  sigs.reserve(nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    std::string sig = n.spec.Signature();
    if (!n.inputs.empty()) {
      sig += "<";
      for (size_t k = 0; k < n.inputs.size(); ++k) {
        const int in = n.inputs[k];
        STREAMBID_CHECK(in >= 0 && in < static_cast<int>(i));
        if (k > 0) sig += ";";
        sig += sigs[static_cast<size_t>(in)];
      }
      sig += ">";
    }
    sigs.push_back(std::move(sig));
  }
  return sigs;
}

}  // namespace streambid::stream
