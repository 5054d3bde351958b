#include "model/model_server.h"

#include <cmath>

#include "common/logging.h"
#include "model/metrics.h"

namespace fgro {

const char* ModelServer::PolicyName(UpdatePolicy policy) {
  switch (policy) {
    case UpdatePolicy::kStatic: return "static";
    case UpdatePolicy::kRetrain: return "retrain";
    case UpdatePolicy::kRetrainFinetune: return "retrain+finetune";
  }
  return "?";
}

Result<ModelServer::DriftResult> ModelServer::RunDriftSimulation(
    const TraceDataset& dataset, const std::vector<std::vector<int>>& buckets,
    UpdatePolicy policy, const DriftOptions& options) {
  if (buckets.empty()) return Status::InvalidArgument("no buckets");
  LatencyModel model(options.model);

  DriftResult result;
  std::vector<int> seen;  // all records already "in the past"
  const int retrain_every =
      std::max(1, static_cast<int>(std::lround(24.0 / options.bucket_hours)));

  for (size_t b = 0; b < buckets.size(); ++b) {
    const std::vector<int>& bucket = buckets[b];
    // 1. Prequential evaluation of this bucket with the current model.
    if (model.trained() && !bucket.empty()) {
      Result<std::vector<double>> preds =
          model.PredictRecords(dataset, bucket);
      if (!preds.ok()) return preds.status();
      std::vector<double> actual;
      actual.reserve(bucket.size());
      for (int idx : bucket) {
        actual.push_back(
            dataset.records[static_cast<size_t>(idx)].actual_latency);
      }
      result.bucket_wmape.push_back(
          ComputeModelMetrics(actual, preds.value()).wmape);
      result.bucket_hours.push_back(static_cast<double>(b) *
                                    options.bucket_hours);
    }
    // 2. Absorb the bucket and update per policy.
    seen.insert(seen.end(), bucket.begin(), bucket.end());
    const bool warmup_done =
        static_cast<int>(b) + 1 >= options.warmup_buckets;
    if (!model.trained()) {
      if (warmup_done &&
          static_cast<int>(seen.size()) >= options.min_training_records) {
        FGRO_RETURN_IF_ERROR(model.Train(dataset, seen, {}, options.train));
      }
      continue;
    }
    switch (policy) {
      case UpdatePolicy::kStatic:
        break;
      case UpdatePolicy::kRetrainFinetune:
        if ((b + 1) % static_cast<size_t>(retrain_every) == 0) {
          FGRO_RETURN_IF_ERROR(model.Train(dataset, seen, {}, options.train));
        } else {
          FGRO_RETURN_IF_ERROR(
              model.FineTune(dataset, bucket, options.finetune));
        }
        break;
      case UpdatePolicy::kRetrain:
        if ((b + 1) % static_cast<size_t>(retrain_every) == 0) {
          FGRO_RETURN_IF_ERROR(model.Train(dataset, seen, {}, options.train));
        }
        break;
    }
  }
  return result;
}

}  // namespace fgro
