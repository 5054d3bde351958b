#ifndef FGRO_FEATURIZE_CHANNELS_H_
#define FGRO_FEATURIZE_CHANNELS_H_

#include <vector>

#include "cluster/machine.h"
#include "cluster/resource.h"
#include "featurize/aim.h"
#include "nn/param.h"
#include "plan/stage.h"

namespace fgro {

/// Which of the five MCI channels (and the AIM augmentation of Channel 1)
/// are active. Leave-one-out masks drive the Expt 2 ablation; disabled
/// channels are zeroed so every model variant shares one architecture.
struct ChannelMask {
  bool ch1 = true;  // query plan (operator matrix + DAG)
  bool ch2 = true;  // instance meta
  bool ch3 = true;  // resource plan
  bool ch4 = true;  // machine system states (discretized)
  bool ch5 = true;  // hardware type
  AimMode aim = AimMode::kCalibrated;
};

/// Fixed feature layout. Operator rows: one-hot type | CT2 statistics |
/// CT3 IO properties | customized features (zero-padded) | AIM.
constexpr int kOpTypeOneHotDim = kNumOperatorTypes;   // 13
constexpr int kOpCt2Dim = 6;
constexpr int kOpCt3Dim = 1 + 4;                      // location + shuffle
constexpr int kOpAimDim = 3;
constexpr int kOpFeatureDim =
    kOpTypeOneHotDim + kOpCt2Dim + kOpCt3Dim + kNumCustomFeatures + kOpAimDim;

constexpr int kNumHardwareTypes = 5;
constexpr int kCh2Dim = 3;
// Resource plan: log2 cores, log2 memory, raw cores. Log-scale features
// make the power-law latency response linearly learnable in log space.
constexpr int kCh3Dim = 3;
constexpr int kCh4Dim = 3;
constexpr int kCh5Dim = kNumHardwareTypes;
constexpr int kContextDim = kCh3Dim + kCh4Dim + kCh5Dim;
constexpr int kInstanceFeatureDim = kCh2Dim + kContextDim;

/// One operator's feature row (Channel 1 + AIM), honoring the mask.
Vec OperatorFeatureRow(const Operator& op, int partition_count,
                       const AimEntry& aim, const ChannelMask& mask);
/// Same row written into a caller buffer of kOpFeatureDim doubles (fully
/// overwritten) — the allocation-free form batched embedding uses.
void OperatorFeatureRowInto(const Operator& op, int partition_count,
                            const AimEntry& aim, const ChannelMask& mask,
                            double* row);

/// Channel 2 features of one instance.
Vec Ch2FeatureVector(const Stage& stage, int instance_idx,
                     const ChannelMask& mask);
/// Same features written into a caller buffer of kCh2Dim doubles.
void Ch2FeatureRowInto(const Stage& stage, int instance_idx,
                       const ChannelMask& mask, double* out);

/// Channels 3-5 (resource plan, discretized machine state, hardware type).
Vec ContextFeatureVector(const ResourceConfig& theta, const SystemState& state,
                         int hardware_type, const ChannelMask& mask,
                         int discretization_degree);

/// Same features written into a caller buffer of kContextDim doubles — the
/// allocation-free form the batched feature-matrix assembly uses. `out` is
/// fully overwritten (disabled channels are zeroed).
void ContextFeatureRowInto(const ResourceConfig& theta,
                           const SystemState& state, int hardware_type,
                           const ChannelMask& mask, int discretization_degree,
                           double* out);

}  // namespace fgro

#endif  // FGRO_FEATURIZE_CHANNELS_H_
