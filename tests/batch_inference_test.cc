// Batched-inference engine tests: PredictBatch must be bit-identical to the
// scalar path for every model kind, the prediction memo must be an exact
// (never approximate) cache, and the parallel helpers must stay
// deterministic. Untrained models are used throughout — Xavier-initialized
// weights and unfitted standardizers exercise the full forward pass without
// paying for training.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "model/latency_model.h"
#include "model/prediction_cache.h"
#include "nn/mlp.h"
#include "optimizer/ipa.h"
#include "test_util.h"
#include "trace/trace_collector.h"
#include "trace/workload_gen.h"

namespace fgro {

/// The bit-identity oracle for batched embedding: the embedding as the
/// training path computes it — PrepareForInference (full featurization with
/// placeholder context) followed by the embedder's cached Forward.
class LatencyModelTestPeer {
 public:
  static Result<LatencyModel::EmbeddedInstance> TrainingPathEmbed(
      const LatencyModel& model, const Stage& stage, int instance_idx) {
    LatencyModel::EmbeddedInstance out;
    out.stage = &stage;
    out.instance_idx = instance_idx;
    if (model.kind() != ModelKind::kMciGtn &&
        model.kind() != ModelKind::kMciTlstm) {
      return out;
    }
    LatencyModel::PreparedSample sample;
    FGRO_RETURN_IF_ERROR(model.PrepareForInference(
        stage, instance_idx, ResourceConfig{}, SystemState{}, 0, &sample));
    if (model.kind() == ModelKind::kMciGtn) {
      GraphEmbedder::Cache cache;
      out.plan_embedding = model.gnn_.Forward(sample.graph, &cache);
    } else {
      TreeLstm::Cache cache;
      out.plan_embedding =
          model.tlstm_.Forward(sample.graph, sample.tree_root, &cache);
    }
    out.ch2_features.assign(sample.inst_features.begin(),
                            sample.inst_features.begin() + kCh2Dim);
    return out;
  }
};

namespace {

Result<Workload> SmallWorkload() {
  WorkloadGenerator gen(GetWorkloadProfile(WorkloadId::kA, 0.03));
  return gen.Generate();
}

std::vector<LatencyModel::PredictionCandidate> RandomCandidates(int count,
                                                                Rng* rng) {
  std::vector<LatencyModel::PredictionCandidate> candidates;
  candidates.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    LatencyModel::PredictionCandidate c;
    c.theta.cores = 0.5 * static_cast<double>(rng->UniformInt(1, 16));
    c.theta.memory_gb = static_cast<double>(rng->UniformInt(1, 64));
    c.state.cpu_util = rng->Uniform();
    c.state.mem_util = rng->Uniform();
    c.state.io_util = rng->Uniform();
    c.hardware_type = static_cast<int>(rng->UniformInt(0, 4));
    candidates.push_back(c);
  }
  return candidates;
}

/// Bit-exact comparison: EXPECT_DOUBLE_EQ allows 4 ULPs, the batched
/// engine's contract is 0.
void ExpectBitIdentical(double a, double b, const char* what) {
  EXPECT_EQ(a, b) << what << ": " << a << " vs " << b;
}

TEST(PredictBatchTest, MatchesScalarBitIdenticallyAcrossModelKinds) {
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  const ModelKind kinds[] = {ModelKind::kMciGtn, ModelKind::kMciTlstm,
                             ModelKind::kMciQppnet, ModelKind::kTlstmOriginal,
                             ModelKind::kQppnetOriginal};
  for (ModelKind kind : kinds) {
    LatencyModel::Options options;
    options.kind = kind;
    LatencyModel model(options);
    Result<LatencyModel::EmbeddedInstance> embedded = model.Embed(stage, 0);
    ASSERT_TRUE(embedded.ok());

    Rng rng(41 + static_cast<uint64_t>(kind));
    // 43 candidates: not a multiple of the GEMM's 4-row block, so the tail
    // path runs too.
    std::vector<LatencyModel::PredictionCandidate> candidates =
        RandomCandidates(43, &rng);
    std::vector<double> batched(candidates.size());
    LatencyModel::BatchScratch scratch;
    model.PredictBatch(embedded.value(), candidates, batched.data(),
                       &scratch);
    for (size_t i = 0; i < candidates.size(); ++i) {
      const double scalar = model.PredictFromEmbedding(
          embedded.value(), candidates[i].theta, candidates[i].state,
          candidates[i].hardware_type);
      ExpectBitIdentical(batched[i], scalar, ModelKindName(kind));
    }
  }
}

TEST(PredictBatchTest, MixedEmbeddingQueriesMatchScalar) {
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  ASSERT_GE(stage.instance_count(), 2);
  LatencyModel model(LatencyModel::Options{});
  Result<LatencyModel::EmbeddedInstance> e0 = model.Embed(stage, 0);
  Result<LatencyModel::EmbeddedInstance> e1 = model.Embed(stage, 1);
  ASSERT_TRUE(e0.ok() && e1.ok());

  Rng rng(77);
  std::vector<LatencyModel::PredictionCandidate> candidates =
      RandomCandidates(30, &rng);
  std::vector<LatencyModel::PredictionQuery> queries;
  for (size_t i = 0; i < candidates.size(); ++i) {
    queries.push_back({i % 2 == 0 ? &e0.value() : &e1.value(),
                       candidates[i]});
  }
  std::vector<double> batched(queries.size());
  LatencyModel::BatchScratch scratch;
  model.PredictBatch(queries, batched.data(), &scratch);
  for (size_t i = 0; i < queries.size(); ++i) {
    const double scalar = model.PredictFromEmbedding(
        *queries[i].embedded, candidates[i].theta, candidates[i].state,
        candidates[i].hardware_type);
    ExpectBitIdentical(batched[i], scalar, "mixed queries");
  }
}

TEST(PredictBatchTest, LargeBatchCrossesChunkBoundaryBitIdentically) {
  // 600 rows forces at least three internal 256-row chunks.
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  LatencyModel model(LatencyModel::Options{});
  Result<LatencyModel::EmbeddedInstance> embedded = model.Embed(stage, 0);
  ASSERT_TRUE(embedded.ok());

  Rng rng(5);
  std::vector<LatencyModel::PredictionCandidate> candidates =
      RandomCandidates(600, &rng);
  std::vector<double> batched(candidates.size());
  LatencyModel::BatchScratch scratch;
  model.PredictBatch(embedded.value(), candidates, batched.data(), &scratch);
  for (size_t i = 0; i < candidates.size(); i += 37) {
    const double scalar = model.PredictFromEmbedding(
        embedded.value(), candidates[i].theta, candidates[i].state,
        candidates[i].hardware_type);
    ExpectBitIdentical(batched[i], scalar, "chunked batch");
  }
}

TEST(PredictBatchTest, MemoHitsReturnIdenticalValues) {
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  LatencyModel model(LatencyModel::Options{});
  Result<LatencyModel::EmbeddedInstance> embedded = model.Embed(stage, 0);
  ASSERT_TRUE(embedded.ok());

  Rng rng(11);
  std::vector<LatencyModel::PredictionCandidate> candidates =
      RandomCandidates(25, &rng);
  PredictionMemo memo;
  LatencyModel::BatchScratch scratch;
  std::vector<double> first(candidates.size());
  model.PredictBatch(embedded.value(), candidates, first.data(), &scratch,
                     &memo);
  EXPECT_EQ(memo.hits(), 0u);
  EXPECT_EQ(memo.misses(), candidates.size());

  std::vector<double> second(candidates.size());
  model.PredictBatch(embedded.value(), candidates, second.data(), &scratch,
                     &memo);
  EXPECT_EQ(memo.hits(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ExpectBitIdentical(first[i], second[i], "memo hit");
  }
}

TEST(PredictionMemoTest, KeyDiscriminatesEveryField) {
  PredictionMemo memo;
  PredictionKey base;
  base.job_id = 3;
  base.stage_id = 4;
  base.instance_idx = 5;
  base.hardware_type = 1;
  base.theta_cores_bits = 100;
  base.theta_memory_bits = 200;
  base.cpu_bits = 300;
  base.mem_bits = 400;
  base.io_bits = 500;
  memo.Insert(base, 42.0);

  double value = 0.0;
  ASSERT_TRUE(memo.Lookup(base, &value));
  EXPECT_EQ(value, 42.0);

  // Each single-field perturbation must miss.
  auto expect_miss = [&](PredictionKey key) {
    double v = 0.0;
    EXPECT_FALSE(memo.Lookup(key, &v));
  };
  PredictionKey k = base;
  k.job_id++;
  expect_miss(k);
  k = base;
  k.stage_id++;
  expect_miss(k);
  k = base;
  k.instance_idx++;
  expect_miss(k);
  k = base;
  k.hardware_type++;
  expect_miss(k);
  k = base;
  k.theta_cores_bits++;
  expect_miss(k);
  k = base;
  k.theta_memory_bits++;
  expect_miss(k);
  k = base;
  k.cpu_bits++;
  expect_miss(k);
  k = base;
  k.mem_bits++;
  expect_miss(k);
  k = base;
  k.io_bits++;
  expect_miss(k);
}

TEST(PredictionMemoTest, BoundedEvictionAndClear) {
  // Tiny capacity: 32 total = 2 per shard. Inserting far more than capacity
  // keeps size() bounded and never corrupts surviving entries.
  PredictionMemo memo(32);
  for (int i = 0; i < 1000; ++i) {
    PredictionKey key;
    key.job_id = i;
    memo.Insert(key, static_cast<double>(i));
  }
  EXPECT_LE(memo.size(), 32u);
  EXPECT_GT(memo.size(), 0u);
  // Any surviving key must return the value it was inserted with.
  int survivors = 0;
  for (int i = 0; i < 1000; ++i) {
    PredictionKey key;
    key.job_id = i;
    double v = 0.0;
    if (memo.Lookup(key, &v)) {
      EXPECT_EQ(v, static_cast<double>(i));
      ++survivors;
    }
  }
  EXPECT_EQ(static_cast<size_t>(survivors), memo.size());
  memo.Clear();
  EXPECT_EQ(memo.size(), 0u);
}

TEST(PredictionMemoTest, InsertIsIdempotent) {
  PredictionMemo memo;
  PredictionKey key;
  key.job_id = 7;
  memo.Insert(key, 1.5);
  memo.Insert(key, 99.0);  // racing re-insert of the same key is a no-op
  double v = 0.0;
  ASSERT_TRUE(memo.Lookup(key, &v));
  EXPECT_EQ(v, 1.5);
}

TEST(PredictionMemoTest, ConcurrentStressKeepsValuesConsistent) {
  // 8 threads hammer one memo with overlapping key ranges; every hit must
  // return the canonical value of its key. Run under TSan in CI.
  PredictionMemo memo(1 << 12);
  std::atomic<int> inconsistencies{0};
  auto worker = [&](int t) {
    Rng rng(static_cast<uint64_t>(t) + 1);
    for (int iter = 0; iter < 4000; ++iter) {
      PredictionKey key;
      key.job_id = static_cast<int32_t>(rng.UniformInt(0, 255));
      key.stage_id = static_cast<int32_t>(rng.UniformInt(0, 7));
      const double canonical =
          static_cast<double>(key.job_id * 8 + key.stage_id);
      double v = 0.0;
      if (memo.Lookup(key, &v)) {
        if (v != canonical) inconsistencies.fetch_add(1);
      } else {
        memo.Insert(key, canonical);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) threads.emplace_back(worker, t);
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(inconsistencies.load(), 0);
  EXPECT_GT(memo.hits(), 0u);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(257);
  for (auto& t : touched) t.store(0);
  ParallelFor(&pool, 257, [&](int i) { touched[static_cast<size_t>(i)]++; });
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
  // Null pool degrades to serial.
  std::vector<int> serial(31, 0);
  ParallelFor(nullptr, 31, [&](int i) { serial[static_cast<size_t>(i)]++; });
  for (int v : serial) EXPECT_EQ(v, 1);
}

TEST(BplMatrixTest, BatchedParallelMatchesScalarSequential) {
  // The IPA latency matrix must be byte-identical between the scalar
  // sequential build and the batched build fanned across a pool, memo on.
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  const Stage& stage = workload->jobs[0].stages[0];
  LatencyModel model(LatencyModel::Options{});
  Cluster cluster(ClusterOptions{.num_machines = 12, .seed = 3});

  SchedulingContext context;
  context.stage = &stage;
  context.cluster = &cluster;
  context.model = &model;

  std::vector<int> instance_rows;
  for (int i = 0; i < stage.instance_count(); ++i) instance_rows.push_back(i);
  std::vector<int> machine_cols = cluster.AvailableMachines(context.theta0);
  ASSERT_FALSE(machine_cols.empty());

  context.batched_inference = false;
  std::vector<std::vector<double>> scalar_matrix;
  ASSERT_TRUE(
      BuildBplMatrix(context, instance_rows, machine_cols, &scalar_matrix));

  ThreadPool pool(4);
  PredictionMemo memo;
  context.batched_inference = true;
  context.worker_pool = &pool;
  context.memo = &memo;
  std::vector<std::vector<double>> batched_matrix;
  ASSERT_TRUE(
      BuildBplMatrix(context, instance_rows, machine_cols, &batched_matrix));
  // And once more through the memo (all hits).
  std::vector<std::vector<double>> memoized_matrix;
  ASSERT_TRUE(
      BuildBplMatrix(context, instance_rows, machine_cols, &memoized_matrix));
  EXPECT_GT(memo.hits(), 0u);

  ASSERT_EQ(scalar_matrix.size(), batched_matrix.size());
  for (size_t i = 0; i < scalar_matrix.size(); ++i) {
    ASSERT_EQ(scalar_matrix[i].size(), batched_matrix[i].size());
    for (size_t j = 0; j < scalar_matrix[i].size(); ++j) {
      ExpectBitIdentical(scalar_matrix[i][j], batched_matrix[i][j],
                         "bpl scalar vs batched");
      ExpectBitIdentical(scalar_matrix[i][j], memoized_matrix[i][j],
                         "bpl scalar vs memoized");
    }
  }
}

bool SameBytes(const Vec& a, const Vec& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// EmbedBatch over `ids` must equal Embed and the training-path oracle per
/// id, byte for byte.
void ExpectEmbedBatchMatches(const LatencyModel& model, const Stage& stage,
                             const std::vector<int>& ids,
                             LatencyModel::EmbedScratch* scratch) {
  std::vector<LatencyModel::EmbeddedInstance> batch(ids.size());
  ASSERT_TRUE(model.EmbedBatch(stage, ids, batch.data(), scratch).ok());
  for (size_t b = 0; b < ids.size(); ++b) {
    Result<LatencyModel::EmbeddedInstance> single = model.Embed(stage, ids[b]);
    Result<LatencyModel::EmbeddedInstance> oracle =
        LatencyModelTestPeer::TrainingPathEmbed(model, stage, ids[b]);
    ASSERT_TRUE(single.ok() && oracle.ok());
    EXPECT_EQ(batch[b].stage, &stage);
    EXPECT_EQ(batch[b].instance_idx, ids[b]);
    EXPECT_TRUE(SameBytes(batch[b].plan_embedding, oracle->plan_embedding))
        << ModelKindName(model.kind()) << " id " << ids[b] << " of "
        << ids.size();
    EXPECT_TRUE(SameBytes(batch[b].ch2_features, oracle->ch2_features));
    EXPECT_TRUE(SameBytes(single->plan_embedding, oracle->plan_embedding));
    EXPECT_TRUE(SameBytes(single->ch2_features, oracle->ch2_features));
    if (model.kind() != ModelKind::kMciQppnet) {
      EXPECT_FALSE(batch[b].plan_embedding.empty());
    }
  }
}

/// A one-operator stage (a scan writing straight out) with `m` instances.
Stage MakeSingleNodeStage(int m) {
  Stage stage = testing_util::MakeChainStage(m);
  stage.operators.resize(1);
  return stage;
}

TEST(EmbedBatchTest, MatchesEmbedAndTrainingPathBitForBit) {
  // Trained models, so both standardizers are fitted and applied.
  Result<Workload> workload = SmallWorkload();
  ASSERT_TRUE(workload.ok());
  TraceCollector collector(ClusterOptions{.num_machines = 16, .seed = 5}, 3);
  Result<TraceDataset> dataset = collector.Collect(workload.value());
  ASSERT_TRUE(dataset.ok());
  std::vector<int> train(dataset->records.size());
  std::iota(train.begin(), train.end(), 0);
  TrainOptions train_options;
  train_options.epochs = 1;
  train_options.max_train_samples = 200;

  const Stage* wide = &workload->jobs[0].stages[0];
  for (const Job& job : workload->jobs) {
    for (const Stage& stage : job.stages) {
      if (stage.instance_count() > wide->instance_count()) wide = &stage;
    }
  }
  const Stage join = testing_util::MakeJoinStage(5);
  const Stage single = MakeSingleNodeStage(3);

  for (ModelKind kind :
       {ModelKind::kMciGtn, ModelKind::kMciTlstm, ModelKind::kMciQppnet}) {
    LatencyModel::Options options;
    options.kind = kind;
    LatencyModel model(options);
    ASSERT_TRUE(model.Train(dataset.value(), train, {}, train_options).ok());
    LatencyModel::EmbedScratch scratch;  // reused across every call below

    // Sizes around the 16-row GEMM panel, unsorted, with repeats.
    Rng rng(300 + static_cast<uint64_t>(kind));
    const int m = wide->instance_count();
    for (int size : {0, 1, 15, 16, 17, 33}) {
      std::vector<int> ids;
      for (int b = 0; b < size; ++b) {
        ids.push_back(static_cast<int>(rng.UniformInt(0, m - 1)));
      }
      if (size > 2) ids[1] = ids[0];
      ExpectEmbedBatchMatches(model, *wide, ids, &scratch);
    }
    // Leaves without children and a sink without parents; a lone node.
    ExpectEmbedBatchMatches(model, join, {4, 0, 3, 3, 1, 2}, &scratch);
    ExpectEmbedBatchMatches(model, single, {2, 0, 1}, &scratch);

    // An invalid id fails the whole batch closed (QPPNet kinds record the
    // identity only and never featurize here).
    if (kind != ModelKind::kMciQppnet) {
      std::vector<LatencyModel::EmbeddedInstance> out(2);
      const std::vector<int> bad = {0, m};
      EXPECT_FALSE(model.EmbedBatch(*wide, bad, out.data(), &scratch).ok());
      EXPECT_FALSE(model.Embed(*wide, -1).ok());
    }
  }
}

TEST(EmbedBatchTest, ChunkedStageMatchesEmbed) {
  // More instances than one kEmbedChunkRows chunk holds, on an untrained
  // GTN: the chunk seams must not move a bit.
  const Stage stage = testing_util::MakeJoinStage(130);
  ASSERT_GT(stage.instance_count() * stage.operator_count(),
            LatencyModel::kEmbedChunkRows);
  LatencyModel model(LatencyModel::Options{});
  std::vector<int> ids(static_cast<size_t>(stage.instance_count()));
  std::iota(ids.rbegin(), ids.rend(), 0);  // descending
  LatencyModel::EmbedScratch scratch;
  ExpectEmbedBatchMatches(model, stage, ids, &scratch);
}

TEST(MlpBatchTest, ForwardBatchMatchesForwardPerRow) {
  Rng rng(9);
  Mlp mlp({7, 16, 16, 3}, &rng);
  Rng data_rng(10);
  // 11 rows: exercises both the 4-row blocks and the tail.
  Mat x;
  x.Resize(11, 7);
  for (double& v : x.data) v = data_rng.Normal();
  MlpScratch scratch;
  const Mat& y = mlp.ForwardBatch(x, &scratch);
  ASSERT_EQ(y.rows, 11);
  ASSERT_EQ(y.cols, 3);
  MlpVecScratch vec_scratch;
  for (int r = 0; r < x.rows; ++r) {
    Vec row(x.Row(r), x.Row(r) + x.cols);
    Vec expected = mlp.Forward(row);
    Vec into_out;
    mlp.ForwardInto(row, &into_out, &vec_scratch);
    for (int c = 0; c < y.cols; ++c) {
      EXPECT_EQ(y.Row(r)[c], expected[static_cast<size_t>(c)])
          << "row " << r << " col " << c;
      EXPECT_EQ(into_out[static_cast<size_t>(c)],
                expected[static_cast<size_t>(c)]);
    }
  }
}

}  // namespace
}  // namespace fgro
