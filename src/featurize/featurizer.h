#ifndef FGRO_FEATURIZE_FEATURIZER_H_
#define FGRO_FEATURIZE_FEATURIZER_H_

#include "common/status.h"
#include "featurize/channels.h"
#include "nn/graph_embedder.h"
#include "plan/dag_to_tree.h"

namespace fgro {

/// Turns (stage, instance, resource plan, machine) into the model inputs of
/// the MCI framework: a plan graph (Channel 1 + AIM, per instance because
/// AIM is instance-specific) and a flat instance/context vector
/// (Channels 2-5). Also builds the DAG-to-tree variant for the
/// tree-structured baselines.
class Featurizer {
 public:
  Featurizer() = default;
  Featurizer(ChannelMask mask, int discretization_degree)
      : mask_(mask), dd_(discretization_degree) {}

  /// Channel 1 (+AIM) as a DAG for the graph embedder.
  Result<PlanGraph> BuildPlanGraph(const Stage& stage,
                                   int instance_idx) const;

  /// Channel 1 (+AIM) as a tree for TLSTM/QPPNet (artificial root nodes get
  /// zero features and type kArtificialRootType).
  Result<PlanGraph> BuildPlanTree(const Stage& stage, int instance_idx,
                                  int* root) const;

  /// The Channel 1 (+AIM) operator rows of one instance, written into
  /// `rows` (stage.operators.size() x kOpFeatureDim doubles, row-major, in
  /// operator order) — the allocation-light form batched embedding uses.
  Status OperatorRowsInto(const Stage& stage, int instance_idx,
                          double* rows) const;

  Vec Ch2Features(const Stage& stage, int instance_idx) const {
    return Ch2FeatureVector(stage, instance_idx, mask_);
  }
  Vec ContextFeatures(const ResourceConfig& theta, const SystemState& state,
                      int hardware_type) const {
    return ContextFeatureVector(theta, state, hardware_type, mask_, dd_);
  }
  /// Concatenated Channels 2-5.
  Vec InstanceFeatures(const Stage& stage, int instance_idx,
                       const ResourceConfig& theta, const SystemState& state,
                       int hardware_type) const;

  const ChannelMask& mask() const { return mask_; }
  int discretization_degree() const { return dd_; }

  static constexpr int kArtificialRootType = -1;

 private:
  Result<std::vector<Vec>> OperatorRows(const Stage& stage,
                                        int instance_idx) const;

  ChannelMask mask_;
  int dd_ = 10;
};

}  // namespace fgro

#endif  // FGRO_FEATURIZE_FEATURIZER_H_
