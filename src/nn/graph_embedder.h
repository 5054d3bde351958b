#ifndef FGRO_NN_GRAPH_EMBEDDER_H_
#define FGRO_NN_GRAPH_EMBEDDER_H_

#include <vector>

#include "nn/linear.h"
#include "nn/mat.h"

namespace fgro {

/// Generic plan-graph input consumed by every embedder. For DAG models the
/// `children` lists come straight from the stage; for tree models they come
/// from the DAG-to-tree conversion. `node_types` selects QPPNet units
/// (kArtificialRoot = -1 maps to a dedicated unit).
struct PlanGraph {
  std::vector<Vec> node_features;
  std::vector<std::vector<int>> children;
  std::vector<int> node_types;

  int size() const { return static_cast<int>(node_features.size()); }
};

/// The shared DAG of a stacked batch of graphs (every graph of one batch has
/// the same nodes and edges — e.g. all instances of one stage) as CSR
/// adjacency: child lists in the order given, parent lists in ascending
/// node id order. Those are exactly the orders GraphEmbedder::Forward
/// accumulates its child and parent means in.
struct GraphTopology {
  std::vector<int> child_begin;   // nodes() + 1 offsets into child_ids
  std::vector<int> child_ids;
  std::vector<int> parent_begin;  // nodes() + 1 offsets into parent_ids
  std::vector<int> parent_ids;

  int nodes() const {
    return child_begin.empty() ? 0 : static_cast<int>(child_begin.size()) - 1;
  }

  /// Sets `nodes` child lists, children_of(i) being node i's list (any
  /// range of ints), and indexes the parents. Capacity is reused.
  template <typename ChildrenOf>
  void Assign(int nodes, ChildrenOf&& children_of) {
    child_begin.assign(1, 0);
    child_ids.clear();
    for (int i = 0; i < nodes; ++i) {
      const auto& kids = children_of(i);
      child_ids.insert(child_ids.end(), kids.begin(), kids.end());
      child_begin.push_back(static_cast<int>(child_ids.size()));
    }
    IndexParents();
  }

 private:
  void IndexParents();

  std::vector<int> fill_;  // IndexParents' per-node write cursors
};

/// The GTN stand-in: a message-passing network over the operator DAG. Each
/// layer mixes a node's own state with the mean of its children's and
/// parents' states (so information flows both with and against the data
/// flow, which is what lets the embedding capture DAG context); the stage
/// embedding is the mean over final node states.
class GraphEmbedder {
 public:
  GraphEmbedder() = default;
  GraphEmbedder(int in_dim, int hidden_dim, int num_layers, Rng* rng);

  struct Cache {
    // h[0] = post-input-projection states; h[l+1] = after message layer l.
    std::vector<std::vector<Vec>> h;
    std::vector<std::vector<Vec>> child_means;   // per message layer
    std::vector<std::vector<Vec>> parent_means;  // per message layer
    std::vector<std::vector<int>> parents;
    const PlanGraph* graph = nullptr;
  };

  Vec Forward(const PlanGraph& graph, Cache* cache) const;

  /// Caller-owned activations of ForwardBatch; reused across calls it stops
  /// allocating once warm. Not shareable across concurrent calls.
  struct BatchScratch {
    Mat h;            // node states, updated in place layer by layer
    Mat child_mean;
    Mat parent_mean;
    Mat self_out;
    Mat child_out;
    Mat parent_out;
  };

  /// Inference-only forward over a stack of graphs sharing `topology`:
  /// row g * n + i of `nodes` is node i of graph g (n = topology.nodes()),
  /// and row g of `embeddings` (resized) receives graph g's embedding. Each
  /// Linear runs once over all node rows (Linear::ForwardBatch); means,
  /// the residual sum and the readout keep Forward's per-element operation
  /// order, so every embedding is bit-identical to Forward's.
  void ForwardBatch(const Mat& nodes, const GraphTopology& topology,
                    Mat* embeddings, BatchScratch* scratch) const;
  /// Accumulates parameter gradients given dL/d(embedding).
  void Backward(Cache& cache, const Vec& dembedding);

  void AppendParams(std::vector<Param*>* out);

  int out_dim() const { return hidden_dim_; }
  int in_dim() const { return input_.in_dim(); }

 private:
  struct MessageLayer {
    Linear self;
    Linear child;
    Linear parent;
  };

  int hidden_dim_ = 0;
  Linear input_;
  std::vector<MessageLayer> layers_;
};

}  // namespace fgro

#endif  // FGRO_NN_GRAPH_EMBEDDER_H_
