#include "featurize/featurizer.h"

#include "featurize/validate.h"

namespace fgro {

Status Featurizer::OperatorRowsInto(const Stage& stage, int instance_idx,
                                    double* rows) const {
  FGRO_RETURN_IF_ERROR(ValidateInstanceMeta(stage, instance_idx));
  Result<std::vector<AimEntry>> aim =
      ComputeAim(stage, instance_idx, mask_.ch1 ? mask_.aim : AimMode::kOff);
  if (!aim.ok()) return aim.status();
  for (const Operator& op : stage.operators) {
    OperatorFeatureRowInto(op, stage.instance_count(),
                           aim.value()[static_cast<size_t>(op.id)], mask_,
                           rows);
    rows += kOpFeatureDim;
  }
  return Status::OK();
}

Result<std::vector<Vec>> Featurizer::OperatorRows(const Stage& stage,
                                                  int instance_idx) const {
  Vec flat(stage.operators.size() * static_cast<size_t>(kOpFeatureDim));
  FGRO_RETURN_IF_ERROR(OperatorRowsInto(stage, instance_idx, flat.data()));
  std::vector<Vec> rows;
  rows.reserve(stage.operators.size());
  for (size_t i = 0; i < stage.operators.size(); ++i) {
    const auto* row = flat.data() + i * static_cast<size_t>(kOpFeatureDim);
    rows.emplace_back(row, row + kOpFeatureDim);
  }
  return rows;
}

Result<PlanGraph> Featurizer::BuildPlanGraph(const Stage& stage,
                                             int instance_idx) const {
  Result<std::vector<Vec>> rows = OperatorRows(stage, instance_idx);
  if (!rows.ok()) return rows.status();
  PlanGraph graph;
  graph.node_features = std::move(rows).value();
  graph.children.reserve(stage.operators.size());
  graph.node_types.reserve(stage.operators.size());
  for (const Operator& op : stage.operators) {
    graph.children.push_back(op.children);
    graph.node_types.push_back(static_cast<int>(op.type));
  }
  return graph;
}

Result<PlanGraph> Featurizer::BuildPlanTree(const Stage& stage,
                                            int instance_idx,
                                            int* root) const {
  Result<std::vector<Vec>> rows = OperatorRows(stage, instance_idx);
  if (!rows.ok()) return rows.status();
  Result<PlanTree> tree = ConvertDagToTree(stage);
  if (!tree.ok()) return tree.status();

  PlanGraph graph;
  const int n = tree.value().size();
  graph.node_features.reserve(static_cast<size_t>(n));
  graph.children.reserve(static_cast<size_t>(n));
  graph.node_types.reserve(static_cast<size_t>(n));
  for (const PlanTreeNode& node : tree.value().nodes) {
    if (node.op_id == PlanTreeNode::kArtificialRoot) {
      graph.node_features.emplace_back(static_cast<size_t>(kOpFeatureDim),
                                       0.0);
      graph.node_types.push_back(kArtificialRootType);
    } else {
      graph.node_features.push_back(
          rows.value()[static_cast<size_t>(node.op_id)]);
      graph.node_types.push_back(static_cast<int>(
          stage.operators[static_cast<size_t>(node.op_id)].type));
    }
    graph.children.push_back(node.children);
  }
  *root = tree.value().root;
  return graph;
}

Vec Featurizer::InstanceFeatures(const Stage& stage, int instance_idx,
                                 const ResourceConfig& theta,
                                 const SystemState& state,
                                 int hardware_type) const {
  Vec ch2 = Ch2Features(stage, instance_idx);
  Vec ctx = ContextFeatures(theta, state, hardware_type);
  ch2.insert(ch2.end(), ctx.begin(), ctx.end());
  return ch2;
}

}  // namespace fgro
