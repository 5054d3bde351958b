#ifndef FGRO_MODEL_MODEL_SERVER_H_
#define FGRO_MODEL_MODEL_SERVER_H_

#include <memory>
#include <vector>

#include "common/status.h"
#include "model/latency_model.h"
#include "trace/data_split.h"

namespace fgro {

/// The model-server component of Fig. 3: owns the online latency model and
/// its update schedule. RunDriftSimulation implements Expt 7's prequential
/// protocol — each incoming time bucket is first *evaluated* with the
/// current model (that is the reported WMAPE), then becomes training data
/// according to the update policy.
class ModelServer {
 public:
  enum class UpdatePolicy {
    kStatic,           // train once on the first day's first window, never update
    kRetrain,          // retrain every 24h on all data seen so far
    kRetrainFinetune,  // retrain every 24h + fine-tune every 6h on recent data
  };

  struct DriftOptions {
    LatencyModel::Options model;
    TrainOptions train;
    double bucket_hours = 6.0;      // wall-clock span of each bucket
    int warmup_buckets = 1;         // buckets used for the initial training
    // The first training waits until this many records accumulated; an
    // undertrained model would otherwise dominate every policy's early
    // error and hide the drift signal the experiment measures.
    int min_training_records = 400;
    TrainOptions finetune;          // lr/epochs for the 6h fine-tune arm
  };

  struct DriftResult {
    std::vector<double> bucket_wmape;   // one per evaluated bucket
    std::vector<double> bucket_hours;   // bucket start, in hours
  };

  static const char* PolicyName(UpdatePolicy policy);

  /// `buckets` are record-index buckets in injection order (by time for the
  /// realistic setting, by descending latency for the hypothetical worst).
  static Result<DriftResult> RunDriftSimulation(
      const TraceDataset& dataset,
      const std::vector<std::vector<int>>& buckets, UpdatePolicy policy,
      const DriftOptions& options);
};

}  // namespace fgro

#endif  // FGRO_MODEL_MODEL_SERVER_H_
