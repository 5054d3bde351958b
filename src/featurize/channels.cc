#include "featurize/channels.h"

#include <cmath>

#include "common/math_utils.h"
#include "featurize/discretize.h"

namespace fgro {

Vec OperatorFeatureRow(const Operator& op, int partition_count,
                       const AimEntry& aim, const ChannelMask& mask) {
  Vec row(static_cast<size_t>(kOpFeatureDim));
  OperatorFeatureRowInto(op, partition_count, aim, mask, row.data());
  return row;
}

void OperatorFeatureRowInto(const Operator& op, int partition_count,
                            const AimEntry& aim, const ChannelMask& mask,
                            double* row) {
  for (int i = 0; i < kOpFeatureDim; ++i) row[i] = 0.0;
  if (!mask.ch1) return;
  int off = 0;
  // One-hot operator type (CT1).
  row[off + static_cast<int>(op.type)] = 1.0;
  off += kOpTypeOneHotDim;
  // CT2: CBO/HBO statistics.
  row[off + 0] = Log1pSafe(op.estimate.input_rows);
  row[off + 1] = Log1pSafe(op.estimate.output_rows);
  row[off + 2] = op.estimate.selectivity;
  row[off + 3] = Log1pSafe(op.estimate.avg_row_size);
  row[off + 4] = Log1pSafe(partition_count);
  row[off + 5] = Log1pSafe(op.estimate.cost);
  off += kOpCt2Dim;
  // CT3: IO-related properties.
  row[off] = op.location == DataLocation::kNetwork ? 1.0 : 0.0;
  row[off + 1 + static_cast<int>(op.shuffle)] = 1.0;
  off += kOpCt3Dim;
  // Customized features, zero-padded to the uniform width.
  for (int i = 0; i < kNumCustomFeatures; ++i) row[off + i] = op.custom[i];
  off += kNumCustomFeatures;
  // AIM augmentation.
  if (mask.aim != AimMode::kOff) {
    row[off + 0] = Log1pSafe(aim.input_rows);
    row[off + 1] = Log1pSafe(aim.output_rows);
    row[off + 2] = Log1pSafe(aim.cost);
  }
}

Vec Ch2FeatureVector(const Stage& stage, int instance_idx,
                     const ChannelMask& mask) {
  Vec out(static_cast<size_t>(kCh2Dim));
  Ch2FeatureRowInto(stage, instance_idx, mask, out.data());
  return out;
}

void Ch2FeatureRowInto(const Stage& stage, int instance_idx,
                       const ChannelMask& mask, double* out) {
  for (int i = 0; i < kCh2Dim; ++i) out[i] = 0.0;
  if (!mask.ch2) return;
  const InstanceMeta& meta =
      stage.instances[static_cast<size_t>(instance_idx)];
  out[0] = Log1pSafe(meta.input_rows);
  out[1] = Log1pSafe(meta.input_bytes);
  // Skew ratio: this instance's share relative to a uniform partition.
  out[2] = meta.input_fraction * stage.instance_count();
}

Vec ContextFeatureVector(const ResourceConfig& theta, const SystemState& state,
                         int hardware_type, const ChannelMask& mask,
                         int discretization_degree) {
  Vec out(static_cast<size_t>(kContextDim), 0.0);
  ContextFeatureRowInto(theta, state, hardware_type, mask,
                        discretization_degree, out.data());
  return out;
}

void ContextFeatureRowInto(const ResourceConfig& theta,
                           const SystemState& state, int hardware_type,
                           const ChannelMask& mask, int discretization_degree,
                           double* out) {
  for (int i = 0; i < kContextDim; ++i) out[i] = 0.0;
  int off = 0;
  if (mask.ch3) {
    out[off + 0] = std::log2(std::max(0.125, theta.cores));
    out[off + 1] = std::log2(std::max(0.25, theta.memory_gb));
    out[off + 2] = theta.cores;
  }
  off += kCh3Dim;
  if (mask.ch4) {
    SystemState d = DiscretizeState(state, discretization_degree);
    out[off + 0] = d.cpu_util;
    out[off + 1] = d.mem_util;
    out[off + 2] = d.io_util;
  }
  off += kCh4Dim;
  if (mask.ch5 && hardware_type >= 0 && hardware_type < kNumHardwareTypes) {
    out[off + hardware_type] = 1.0;
  }
}

}  // namespace fgro
