#include "nn/graph_embedder.h"

#include "common/logging.h"

namespace fgro {

void GraphTopology::IndexParents() {
  const int n = nodes();
  // Counting pass, then fill in ascending parent order — the order Forward's
  // reverse-adjacency loop appends in (duplicates included).
  parent_begin.assign(static_cast<size_t>(n) + 1, 0);
  for (int c : child_ids) parent_begin[static_cast<size_t>(c) + 1]++;
  for (int i = 0; i < n; ++i) {
    parent_begin[static_cast<size_t>(i) + 1] +=
        parent_begin[static_cast<size_t>(i)];
  }
  parent_ids.resize(child_ids.size());
  fill_.assign(parent_begin.begin(), parent_begin.end() - 1);
  for (int i = 0; i < n; ++i) {
    for (int e = child_begin[static_cast<size_t>(i)];
         e < child_begin[static_cast<size_t>(i) + 1]; ++e) {
      const int c = child_ids[static_cast<size_t>(e)];
      parent_ids[static_cast<size_t>(fill_[static_cast<size_t>(c)]++)] = i;
    }
  }
}

GraphEmbedder::GraphEmbedder(int in_dim, int hidden_dim, int num_layers,
                             Rng* rng)
    : hidden_dim_(hidden_dim), input_(in_dim, hidden_dim, rng) {
  layers_.reserve(static_cast<size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    layers_.push_back(MessageLayer{Linear(hidden_dim, hidden_dim, rng),
                                   Linear(hidden_dim, hidden_dim, rng),
                                   Linear(hidden_dim, hidden_dim, rng)});
  }
}

Vec GraphEmbedder::Forward(const PlanGraph& graph, Cache* cache) const {
  const int n = graph.size();
  FGRO_CHECK(n > 0);
  cache->graph = &graph;
  cache->h.assign(layers_.size() + 1, {});
  cache->child_means.assign(layers_.size(), {});
  cache->parent_means.assign(layers_.size(), {});

  // Reverse adjacency.
  cache->parents.assign(static_cast<size_t>(n), {});
  for (int i = 0; i < n; ++i) {
    for (int c : graph.children[static_cast<size_t>(i)]) {
      cache->parents[static_cast<size_t>(c)].push_back(i);
    }
  }

  // Input projection.
  cache->h[0].resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    cache->h[0][static_cast<size_t>(i)] =
        Relu(input_.Forward(graph.node_features[static_cast<size_t>(i)]));
  }

  const Vec zeros(static_cast<size_t>(hidden_dim_), 0.0);
  auto mean_of = [&](const std::vector<Vec>& h,
                     const std::vector<int>& ids) -> Vec {
    if (ids.empty()) return zeros;
    Vec m(static_cast<size_t>(hidden_dim_), 0.0);
    for (int j : ids) {
      const Vec& hj = h[static_cast<size_t>(j)];
      for (int k = 0; k < hidden_dim_; ++k) {
        m[static_cast<size_t>(k)] += hj[static_cast<size_t>(k)];
      }
    }
    for (double& x : m) x /= static_cast<double>(ids.size());
    return m;
  };

  for (size_t l = 0; l < layers_.size(); ++l) {
    const std::vector<Vec>& prev = cache->h[l];
    cache->child_means[l].resize(static_cast<size_t>(n));
    cache->parent_means[l].resize(static_cast<size_t>(n));
    cache->h[l + 1].resize(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      Vec cm = mean_of(prev, graph.children[static_cast<size_t>(i)]);
      Vec pm = mean_of(prev, cache->parents[static_cast<size_t>(i)]);
      Vec pre = layers_[l].self.Forward(prev[static_cast<size_t>(i)]);
      Vec from_child = layers_[l].child.Forward(cm);
      Vec from_parent = layers_[l].parent.Forward(pm);
      for (int k = 0; k < hidden_dim_; ++k) {
        pre[static_cast<size_t>(k)] += from_child[static_cast<size_t>(k)] +
                                       from_parent[static_cast<size_t>(k)];
      }
      cache->h[l + 1][static_cast<size_t>(i)] = Relu(pre);
      cache->child_means[l][static_cast<size_t>(i)] = std::move(cm);
      cache->parent_means[l][static_cast<size_t>(i)] = std::move(pm);
    }
  }

  // Mean-pool readout.
  Vec emb(static_cast<size_t>(hidden_dim_), 0.0);
  const std::vector<Vec>& last = cache->h.back();
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < hidden_dim_; ++k) {
      emb[static_cast<size_t>(k)] += last[static_cast<size_t>(i)][static_cast<size_t>(k)];
    }
  }
  for (double& x : emb) x /= static_cast<double>(n);
  return emb;
}

namespace {

/// out[k] = (0 + h[ids[0]][k] + h[ids[1]][k] + ...) / |ids| in list order,
/// zeros for an empty list — Forward's mean_of, written into a matrix row.
void MeanOfRows(const Mat& h, int row_base, const int* ids, int count,
                double* out) {
  const int d = h.cols;
  for (int k = 0; k < d; ++k) out[k] = 0.0;
  if (count == 0) return;
  for (int e = 0; e < count; ++e) {
    const double* hj = h.Row(row_base + ids[e]);
    for (int k = 0; k < d; ++k) out[k] += hj[k];
  }
  for (int k = 0; k < d; ++k) out[k] /= static_cast<double>(count);
}

}  // namespace

void GraphEmbedder::ForwardBatch(const Mat& nodes,
                                 const GraphTopology& topology,
                                 Mat* embeddings,
                                 BatchScratch* scratch) const {
  const int n = topology.nodes();
  FGRO_CHECK(n > 0 && nodes.rows % n == 0) << nodes.rows << " rows, " << n
                                           << " nodes per graph";
  const int graphs = nodes.rows / n;
  const int d = hidden_dim_;
  Mat& h = scratch->h;
  input_.ForwardBatch(nodes, &h);
  ReluInPlace(&h);

  for (const MessageLayer& layer : layers_) {
    scratch->child_mean.Resize(nodes.rows, d);
    scratch->parent_mean.Resize(nodes.rows, d);
    for (int g = 0; g < graphs; ++g) {
      const int base = g * n;
      for (int i = 0; i < n; ++i) {
        const int cb = topology.child_begin[static_cast<size_t>(i)];
        const int pb = topology.parent_begin[static_cast<size_t>(i)];
        MeanOfRows(h, base, topology.child_ids.data() + cb,
                   topology.child_begin[static_cast<size_t>(i) + 1] - cb,
                   scratch->child_mean.Row(base + i));
        MeanOfRows(h, base, topology.parent_ids.data() + pb,
                   topology.parent_begin[static_cast<size_t>(i) + 1] - pb,
                   scratch->parent_mean.Row(base + i));
      }
    }
    layer.self.ForwardBatch(h, &scratch->self_out);
    layer.child.ForwardBatch(scratch->child_mean, &scratch->child_out);
    layer.parent.ForwardBatch(scratch->parent_mean, &scratch->parent_out);
    // h is fully consumed above, so the next states overwrite it in place:
    // pre = self + (child + parent), then ReLU, as in Forward.
    const double* self_out = scratch->self_out.data.data();
    const double* child_out = scratch->child_out.data.data();
    const double* parent_out = scratch->parent_out.data.data();
    for (size_t e = 0; e < h.data.size(); ++e) {
      const double pre = self_out[e] + (child_out[e] + parent_out[e]);
      h.data[e] = pre > 0.0 ? pre : 0.0;
    }
  }

  // Mean-pool readout per graph.
  embeddings->Resize(graphs, d);
  for (int g = 0; g < graphs; ++g) {
    double* emb = embeddings->Row(g);
    for (int k = 0; k < d; ++k) emb[k] = 0.0;
    for (int i = 0; i < n; ++i) {
      const double* hi = h.Row(g * n + i);
      for (int k = 0; k < d; ++k) emb[k] += hi[k];
    }
    for (int k = 0; k < d; ++k) emb[k] /= static_cast<double>(n);
  }
}

void GraphEmbedder::Backward(Cache& cache, const Vec& dembedding) {
  const PlanGraph& graph = *cache.graph;
  const int n = graph.size();

  // d(readout): mean-pool spreads the gradient uniformly.
  std::vector<Vec> dh(static_cast<size_t>(n),
                      Vec(static_cast<size_t>(hidden_dim_), 0.0));
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < hidden_dim_; ++k) {
      dh[static_cast<size_t>(i)][static_cast<size_t>(k)] =
          dembedding[static_cast<size_t>(k)] / static_cast<double>(n);
    }
  }

  for (size_t l = layers_.size(); l-- > 0;) {
    std::vector<Vec> dprev(static_cast<size_t>(n),
                           Vec(static_cast<size_t>(hidden_dim_), 0.0));
    for (int i = 0; i < n; ++i) {
      // Through the ReLU of layer l+1's output.
      Vec dpre = ReluBackward(cache.h[l + 1][static_cast<size_t>(i)],
                              dh[static_cast<size_t>(i)]);
      // Self path.
      layers_[l].self.BackwardInto(cache.h[l][static_cast<size_t>(i)], dpre,
                                   &dprev[static_cast<size_t>(i)]);
      // Child-mean path: gradient splits evenly over children.
      const std::vector<int>& kids = graph.children[static_cast<size_t>(i)];
      if (!kids.empty()) {
        Vec dcm(static_cast<size_t>(hidden_dim_), 0.0);
        layers_[l].child.BackwardInto(
            cache.child_means[l][static_cast<size_t>(i)], dpre, &dcm);
        for (int c : kids) {
          for (int k = 0; k < hidden_dim_; ++k) {
            dprev[static_cast<size_t>(c)][static_cast<size_t>(k)] +=
                dcm[static_cast<size_t>(k)] /
                static_cast<double>(kids.size());
          }
        }
      } else {
        Vec scratch(static_cast<size_t>(hidden_dim_), 0.0);
        layers_[l].child.BackwardInto(
            cache.child_means[l][static_cast<size_t>(i)], dpre, &scratch);
      }
      // Parent-mean path.
      const std::vector<int>& pars = cache.parents[static_cast<size_t>(i)];
      if (!pars.empty()) {
        Vec dpm(static_cast<size_t>(hidden_dim_), 0.0);
        layers_[l].parent.BackwardInto(
            cache.parent_means[l][static_cast<size_t>(i)], dpre, &dpm);
        for (int p : pars) {
          for (int k = 0; k < hidden_dim_; ++k) {
            dprev[static_cast<size_t>(p)][static_cast<size_t>(k)] +=
                dpm[static_cast<size_t>(k)] / static_cast<double>(pars.size());
          }
        }
      } else {
        Vec scratch(static_cast<size_t>(hidden_dim_), 0.0);
        layers_[l].parent.BackwardInto(
            cache.parent_means[l][static_cast<size_t>(i)], dpre, &scratch);
      }
    }
    dh = std::move(dprev);
  }

  // Input projection; node features are data, their gradient is discarded.
  for (int i = 0; i < n; ++i) {
    Vec dpre = ReluBackward(cache.h[0][static_cast<size_t>(i)],
                            dh[static_cast<size_t>(i)]);
    Vec scratch(graph.node_features[static_cast<size_t>(i)].size(), 0.0);
    input_.BackwardInto(graph.node_features[static_cast<size_t>(i)], dpre,
                        &scratch);
  }
}

void GraphEmbedder::AppendParams(std::vector<Param*>* out) {
  input_.AppendParams(out);
  for (MessageLayer& layer : layers_) {
    layer.self.AppendParams(out);
    layer.child.AppendParams(out);
    layer.parent.AppendParams(out);
  }
}

}  // namespace fgro
