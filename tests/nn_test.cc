#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>

#include "common/rng.h"
#include "nn/adam.h"
#include "nn/graph_embedder.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/qppnet.h"
#include "nn/tree_lstm.h"

namespace fgro {
namespace {

/// Checks every parameter's analytic gradient against central finite
/// differences. `loss` must be a pure function of the current parameter
/// values; `backward` must accumulate gradients of that loss.
void CheckGradients(const std::vector<Param*>& params,
                    const std::function<double()>& loss,
                    const std::function<void()>& backward,
                    double tolerance = 1e-5) {
  for (Param* p : params) p->ZeroGrad();
  backward();
  const double h = 1e-5;
  int checked = 0;
  for (Param* p : params) {
    for (size_t i = 0; i < p->value.size(); ++i) {
      if (++checked % 3 != 0) continue;  // spot-check a third of the params
      double saved = p->value[i];
      p->value[i] = saved + h;
      double up = loss();
      p->value[i] = saved - h;
      double down = loss();
      p->value[i] = saved;
      double numeric = (up - down) / (2 * h);
      EXPECT_NEAR(p->grad[i], numeric,
                  tolerance * std::max(1.0, std::abs(numeric)))
          << "param element " << i;
    }
  }
}

TEST(LinearTest, ForwardMatchesManualComputation) {
  Rng rng(1);
  Linear layer(2, 2, &rng);
  std::vector<Param*> params;
  layer.AppendParams(&params);
  // Overwrite with known weights: W = [[1,2],[3,4]], b = [0.5, -0.5].
  params[0]->value = {1, 2, 3, 4};
  params[1]->value = {0.5, -0.5};
  Vec y = layer.Forward({10, 20});
  EXPECT_DOUBLE_EQ(y[0], 10 + 40 + 0.5);
  EXPECT_DOUBLE_EQ(y[1], 30 + 80 - 0.5);
}

TEST(LinearTest, GradientsMatchFiniteDifference) {
  Rng rng(2);
  Linear layer(3, 2, &rng);
  std::vector<Param*> params;
  layer.AppendParams(&params);
  Vec x = {0.3, -1.2, 0.7};
  Vec target = {1.0, -0.5};
  auto loss = [&]() {
    Vec y = layer.Forward(x);
    return 0.5 * ((y[0] - target[0]) * (y[0] - target[0]) +
                  (y[1] - target[1]) * (y[1] - target[1]));
  };
  auto backward = [&]() {
    Vec y = layer.Forward(x);
    layer.Backward(x, {y[0] - target[0], y[1] - target[1]});
  };
  CheckGradients(params, loss, backward);
}

TEST(LinearTest, BackwardReturnsInputGradient) {
  Rng rng(3);
  Linear layer(2, 1, &rng);
  std::vector<Param*> params;
  layer.AppendParams(&params);
  params[0]->value = {2.0, -3.0};
  Vec dx = layer.Backward({1.0, 1.0}, {1.0});
  EXPECT_DOUBLE_EQ(dx[0], 2.0);
  EXPECT_DOUBLE_EQ(dx[1], -3.0);
}

TEST(ActivationTest, ReluAndBackward) {
  Vec y = Relu({-1.0, 0.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
  Vec dx = ReluBackward(y, {5.0, 5.0, 5.0});
  EXPECT_DOUBLE_EQ(dx[0], 0.0);
  EXPECT_DOUBLE_EQ(dx[2], 5.0);
}

TEST(MlpTest, GradientsMatchFiniteDifference) {
  Rng rng(4);
  Mlp mlp({3, 5, 4, 1}, &rng);
  std::vector<Param*> params;
  mlp.AppendParams(&params);
  Vec x = {0.5, -0.2, 1.1};
  auto loss = [&]() {
    double y = mlp.Forward(x)[0];
    return 0.5 * (y - 2.0) * (y - 2.0);
  };
  auto backward = [&]() {
    MlpCache cache;
    double y = mlp.Forward(x, &cache)[0];
    mlp.Backward(cache, {y - 2.0});
  };
  CheckGradients(params, loss, backward);
}

TEST(LinearTest, ForwardBatchMatchesForwardPerRow) {
  Rng rng(21);
  Linear layer(5, 3, &rng);
  Rng data_rng(22);
  // 1..40 rows: 4-row GEMM blocks and scalar tails (remainders under 6),
  // zero-padded partial 16-row panels (remainders of 6..15), full panels.
  for (int rows = 1; rows <= 40; ++rows) {
    Mat x;
    x.Resize(rows, 5);
    for (double& v : x.data) v = data_rng.Normal();
    Mat y;
    layer.ForwardBatch(x, &y);
    ASSERT_EQ(y.rows, rows);
    ASSERT_EQ(y.cols, 3);
    for (int r = 0; r < x.rows; ++r) {
      Vec row(x.Row(r), x.Row(r) + x.cols);
      Vec expected = layer.Forward(row);
      for (int c = 0; c < y.cols; ++c) {
        // Exact: the blocked GEMM keeps each output element's accumulation
        // order identical to the scalar path.
        EXPECT_EQ(y.Row(r)[c], expected[static_cast<size_t>(c)])
            << rows << " rows, row " << r << " col " << c;
      }
    }
  }
}

TEST(LinearTest, ForwardIntoMatchesForward) {
  Rng rng(23);
  Linear layer(4, 4, &rng);
  Vec x = {0.3, -1.1, 2.2, 0.0};
  Vec expected = layer.Forward(x);
  Vec out;
  layer.ForwardInto(x, &out);
  ASSERT_EQ(out.size(), expected.size());
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], expected[i]);
}

TEST(MlpTest, CachedAndUncachedForwardAgree) {
  Rng rng(5);
  Mlp mlp({4, 8, 2}, &rng);
  Vec x = {1, 2, 3, 4};
  MlpCache cache;
  Vec a = mlp.Forward(x, &cache);
  Vec b = mlp.Forward(x);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize 0.5 * (w - 3)^2 for each of 4 scalar params.
  Param p;
  p.Resize(4, 1);
  Adam adam(Adam::Options{.lr = 0.1});
  std::vector<Param*> params = {&p};
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGrad(params);
    for (size_t i = 0; i < 4; ++i) p.grad[i] = p.value[i] - 3.0;
    adam.Step(params, 1);
  }
  for (size_t i = 0; i < 4; ++i) EXPECT_NEAR(p.value[i], 3.0, 0.05);
}

TEST(AdamTest, BatchAveragingScalesStep) {
  Param a, b;
  a.Resize(1, 1);
  b.Resize(1, 1);
  Adam opt_a(Adam::Options{.lr = 0.1}), opt_b(Adam::Options{.lr = 0.1});
  a.grad[0] = 8.0;
  b.grad[0] = 2.0;
  opt_a.Step({&a}, 4);   // 8/4 = 2
  opt_b.Step({&b}, 1);   // 2
  EXPECT_NEAR(a.value[0], b.value[0], 1e-12);
}

PlanGraph MakeDiamondGraph(int feat_dim) {
  PlanGraph g;
  g.node_features = {Vec(static_cast<size_t>(feat_dim), 0.1),
                     Vec(static_cast<size_t>(feat_dim), -0.3),
                     Vec(static_cast<size_t>(feat_dim), 0.7),
                     Vec(static_cast<size_t>(feat_dim), 0.2)};
  for (int i = 0; i < feat_dim; ++i) {
    g.node_features[2][static_cast<size_t>(i)] = 0.1 * i;
  }
  g.children = {{}, {0}, {0}, {1, 2}};
  g.node_types = {0, 1, 2, 3};
  return g;
}

TEST(GraphEmbedderTest, OutputDimAndDeterminism) {
  Rng rng(6);
  GraphEmbedder gnn(4, 6, 2, &rng);
  PlanGraph g = MakeDiamondGraph(4);
  GraphEmbedder::Cache c1, c2;
  Vec e1 = gnn.Forward(g, &c1);
  Vec e2 = gnn.Forward(g, &c2);
  ASSERT_EQ(e1.size(), 6u);
  for (size_t i = 0; i < e1.size(); ++i) EXPECT_DOUBLE_EQ(e1[i], e2[i]);
}

TEST(GraphEmbedderTest, SensitiveToStructure) {
  Rng rng(7);
  GraphEmbedder gnn(4, 6, 2, &rng);
  PlanGraph diamond = MakeDiamondGraph(4);
  PlanGraph chain = diamond;
  chain.children = {{}, {0}, {1}, {2}};
  GraphEmbedder::Cache c1, c2;
  Vec e1 = gnn.Forward(diamond, &c1);
  Vec e2 = gnn.Forward(chain, &c2);
  double diff = 0.0;
  for (size_t i = 0; i < e1.size(); ++i) diff += std::abs(e1[i] - e2[i]);
  EXPECT_GT(diff, 1e-6);
}

TEST(GraphEmbedderTest, GradientsMatchFiniteDifference) {
  Rng rng(8);
  GraphEmbedder gnn(4, 5, 2, &rng);
  Mlp head({5, 1}, &rng);
  PlanGraph g = MakeDiamondGraph(4);
  std::vector<Param*> params;
  gnn.AppendParams(&params);
  head.AppendParams(&params);
  auto loss = [&]() {
    GraphEmbedder::Cache cache;
    double y = head.Forward(gnn.Forward(g, &cache))[0];
    return 0.5 * (y - 1.0) * (y - 1.0);
  };
  auto backward = [&]() {
    GraphEmbedder::Cache cache;
    Vec emb = gnn.Forward(g, &cache);
    MlpCache mc;
    double y = head.Forward(emb, &mc)[0];
    Vec demb = head.Backward(mc, {y - 1.0});
    gnn.Backward(cache, demb);
  };
  CheckGradients(params, loss, backward, 1e-4);
}

TEST(GraphEmbedderTest, ForwardBatchMatchesForwardBitForBitOnRandomDags) {
  // Random DAGs (isolated nodes, multi-parent nodes, repeated and unsorted
  // child lists included) stacked 1..19 graphs deep: every graph's batched
  // embedding must equal the training Forward's to the bit. Graph counts
  // cross the GEMM's 16-row panel and 4-row block boundaries.
  Rng rng(2024);
  GraphEmbedder gnn(7, 9, 2, &rng);
  GraphEmbedder::BatchScratch scratch;
  GraphTopology topology;
  Mat nodes, embeddings;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 12));
    std::vector<std::vector<int>> children(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        // Edges only toward lower ids keep it acyclic; rare repeats.
        if (j < i && rng.Uniform() < 0.3) {
          children[static_cast<size_t>(i)].push_back(j);
          if (rng.Uniform() < 0.1) children[static_cast<size_t>(i)].push_back(j);
        }
      }
      std::shuffle(children[static_cast<size_t>(i)].begin(),
                   children[static_cast<size_t>(i)].end(), rng.engine());
    }
    topology.Assign(n, [&](int i) -> const std::vector<int>& {
      return children[static_cast<size_t>(i)];
    });
    const int graphs = static_cast<int>(rng.UniformInt(1, 19));
    nodes.Resize(graphs * n, 7);
    for (double& v : nodes.data) v = rng.Uniform(-2.0, 2.0);
    gnn.ForwardBatch(nodes, topology, &embeddings, &scratch);
    ASSERT_EQ(embeddings.rows, graphs);
    ASSERT_EQ(embeddings.cols, gnn.out_dim());
    for (int g = 0; g < graphs; ++g) {
      PlanGraph graph;
      graph.children = children;
      for (int i = 0; i < n; ++i) {
        const double* row = nodes.Row(g * n + i);
        graph.node_features.emplace_back(row, row + 7);
      }
      GraphEmbedder::Cache cache;
      const Vec expected = gnn.Forward(graph, &cache);
      ASSERT_EQ(std::memcmp(expected.data(), embeddings.Row(g),
                            expected.size() * sizeof(double)),
                0)
          << "trial " << trial << " graph " << g << " of " << graphs;
    }
  }
}

PlanGraph MakeTree(int feat_dim) {
  // 0 <- 1, 0 <- 2, 2 <- 3 (root = 0)
  PlanGraph g;
  g.node_features.assign(4, Vec(static_cast<size_t>(feat_dim), 0.0));
  for (int n = 0; n < 4; ++n) {
    for (int i = 0; i < feat_dim; ++i) {
      g.node_features[static_cast<size_t>(n)][static_cast<size_t>(i)] =
          0.05 * (n + 1) * (i + 1);
    }
  }
  g.children = {{1, 2}, {}, {3}, {}};
  g.node_types = {0, 1, 2, 3};
  return g;
}

TEST(TreeLstmTest, ForwardShapeAndDeterminism) {
  Rng rng(9);
  TreeLstm lstm(4, 6, &rng);
  PlanGraph tree = MakeTree(4);
  TreeLstm::Cache c1, c2;
  Vec h1 = lstm.Forward(tree, 0, &c1);
  Vec h2 = lstm.Forward(tree, 0, &c2);
  ASSERT_EQ(h1.size(), 6u);
  for (size_t i = 0; i < h1.size(); ++i) EXPECT_DOUBLE_EQ(h1[i], h2[i]);
}

TEST(TreeLstmTest, GradientsMatchFiniteDifference) {
  Rng rng(10);
  TreeLstm lstm(3, 4, &rng);
  Mlp head({4, 1}, &rng);
  PlanGraph tree = MakeTree(3);
  std::vector<Param*> params;
  lstm.AppendParams(&params);
  head.AppendParams(&params);
  auto loss = [&]() {
    TreeLstm::Cache cache;
    double y = head.Forward(lstm.Forward(tree, 0, &cache))[0];
    return 0.5 * (y - 0.7) * (y - 0.7);
  };
  auto backward = [&]() {
    TreeLstm::Cache cache;
    Vec h = lstm.Forward(tree, 0, &cache);
    MlpCache mc;
    double y = head.Forward(h, &mc)[0];
    Vec dh = head.Backward(mc, {y - 0.7});
    lstm.Backward(cache, dh);
  };
  CheckGradients(params, loss, backward, 1e-4);
}

TEST(QppNetTest, ForwardIsDeterministic) {
  Rng rng(11);
  QppNet qpp(5, 3, 4, 6, &rng);
  PlanGraph tree = MakeTree(3);
  QppNet::Cache c1, c2;
  EXPECT_DOUBLE_EQ(qpp.Forward(tree, 0, &c1), qpp.Forward(tree, 0, &c2));
}

TEST(QppNetTest, ArtificialRootUsesExtraUnit) {
  Rng rng(12);
  QppNet qpp(5, 3, 4, 6, &rng);
  PlanGraph tree = MakeTree(3);
  tree.node_types[0] = -1;  // artificial root
  QppNet::Cache cache;
  EXPECT_NO_FATAL_FAILURE(qpp.Forward(tree, 0, &cache));
  EXPECT_EQ(cache.nodes[0].unit, 5);  // index num_types = artificial unit
}

TEST(QppNetTest, GradientsMatchFiniteDifference) {
  Rng rng(13);
  QppNet qpp(5, 3, 3, 5, &rng);
  PlanGraph tree = MakeTree(3);
  std::vector<Param*> params;
  qpp.AppendParams(&params);
  auto loss = [&]() {
    QppNet::Cache cache;
    double y = qpp.Forward(tree, 0, &cache);
    return 0.5 * (y - 1.5) * (y - 1.5);
  };
  auto backward = [&]() {
    QppNet::Cache cache;
    double y = qpp.Forward(tree, 0, &cache);
    qpp.Backward(cache, y - 1.5);
  };
  CheckGradients(params, loss, backward, 1e-4);
}

TEST(TrainingSmokeTest, MlpFitsLinearFunction) {
  Rng rng(14);
  Mlp mlp({2, 16, 1}, &rng);
  std::vector<Param*> params;
  mlp.AppendParams(&params);
  Adam adam(Adam::Options{.lr = 5e-3});
  Rng data_rng(15);
  double final_loss = 0.0;
  for (int step = 0; step < 2000; ++step) {
    adam.ZeroGrad(params);
    double loss_sum = 0.0;
    for (int b = 0; b < 8; ++b) {
      Vec x = {data_rng.Uniform(-1, 1), data_rng.Uniform(-1, 1)};
      double target = 2.0 * x[0] - 0.5 * x[1] + 0.25;
      MlpCache cache;
      double y = mlp.Forward(x, &cache)[0];
      loss_sum += 0.5 * (y - target) * (y - target);
      mlp.Backward(cache, {y - target});
    }
    adam.Step(params, 8);
    final_loss = loss_sum / 8;
  }
  EXPECT_LT(final_loss, 1e-3);
}

}  // namespace
}  // namespace fgro
