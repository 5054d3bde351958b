#include "optimizer/raa.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "clustering/dbscan.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "featurize/discretize.h"
#include "hbo/hbo.h"
#include "moo/progressive_frontier.h"
#include "moo/wun.h"
#include "optimizer/frontier_cache.h"
#include "optimizer/raa_general.h"

namespace fgro {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Builds the RAA groups for each clustering strategy. Every group carries
/// its member instances, a representative (largest input rows,
/// conservative) and the representative's assigned machine, plus the
/// instance cluster it came from and that cluster's canonical
/// representative (frontier compression builds templates from the latter).
std::vector<FastMciGroup> BuildGroups(
    const SchedulingContext& context, const StageDecision& placement,
    const std::vector<FastMciGroup>* fast_mci_groups,
    RaaClustering clustering) {
  const Stage& stage = *context.stage;
  const int m = stage.instance_count();
  auto representative_of = [&](const std::vector<int>& members) {
    int rep = members[0];
    for (int i : members) {
      if (stage.instances[static_cast<size_t>(i)].input_rows >
          stage.instances[static_cast<size_t>(rep)].input_rows) {
        rep = i;
      }
    }
    return rep;
  };

  std::vector<FastMciGroup> groups;
  switch (clustering) {
    case RaaClustering::kNone: {
      groups.reserve(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) {
        FastMciGroup g;
        g.instances = {i};
        g.representative = i;
        g.representative_machine =
            placement.machine_of_instance[static_cast<size_t>(i)];
        g.instance_cluster = i;
        g.canonical_representative = i;
        groups.push_back(std::move(g));
      }
      break;
    }
    case RaaClustering::kDbscan: {
      // Cluster on the Channel-2 features (log rows, log bytes); then split
      // by assigned machine's state bucket so one configuration per group
      // stays meaningful.
      std::vector<std::vector<double>> points;
      points.reserve(static_cast<size_t>(m));
      for (int i = 0; i < m; ++i) {
        const InstanceMeta& meta = stage.instances[static_cast<size_t>(i)];
        points.push_back(
            {Log1pSafe(meta.input_rows), Log1pSafe(meta.input_bytes)});
      }
      std::vector<int> labels = Dbscan(points, {.eps = 0.4, .min_pts = 3});
      std::map<std::pair<int, int>, std::vector<int>> by_key;
      for (int i = 0; i < m; ++i) {
        int machine = placement.machine_of_instance[static_cast<size_t>(i)];
        const Machine& mach = context.cluster->machine(machine);
        int bucket =
            mach.hardware().id * 1000 +
            DiscretizeIndex(mach.state().cpu_util,
                            context.discretization_degree) *
                10 +
            DiscretizeIndex(mach.state().io_util,
                            context.discretization_degree);
        by_key[{labels[static_cast<size_t>(i)], bucket}].push_back(i);
      }
      for (auto& [key, members] : by_key) {
        FastMciGroup g;
        g.instances = std::move(members);
        g.representative = representative_of(g.instances);
        g.representative_machine =
            placement.machine_of_instance[static_cast<size_t>(
                g.representative)];
        g.instance_cluster = key.first;
        g.canonical_representative = g.representative;
        groups.push_back(std::move(g));
      }
      break;
    }
    case RaaClustering::kFastMci: {
      if (fast_mci_groups != nullptr && !fast_mci_groups->empty()) {
        groups = *fast_mci_groups;
      } else {
        // Rebuild: KDE clusters subdivided by the assigned machine's state
        // bucket (what clustered IPA would have produced).
        std::vector<InstanceClusterGroup> kde =
            ClusterInstancesByRows(stage);
        std::map<std::tuple<int, int>, std::vector<int>> by_key;
        for (size_t c = 0; c < kde.size(); ++c) {
          for (int i : kde[c].instance_ids) {
            int machine =
                placement.machine_of_instance[static_cast<size_t>(i)];
            const Machine& mach = context.cluster->machine(machine);
            int bucket =
                mach.hardware().id * 1000 +
                DiscretizeIndex(mach.state().cpu_util,
                                context.discretization_degree) *
                    10 +
                DiscretizeIndex(mach.state().io_util,
                                context.discretization_degree);
            by_key[{static_cast<int>(c), bucket}].push_back(i);
          }
        }
        for (auto& [key, members] : by_key) {
          FastMciGroup g;
          g.instances = std::move(members);
          g.representative = representative_of(g.instances);
          g.representative_machine =
              placement.machine_of_instance[static_cast<size_t>(
                  g.representative)];
          g.instance_cluster = std::get<0>(key);
          g.canonical_representative =
              kde[static_cast<size_t>(std::get<0>(key))].representative;
          groups.push_back(std::move(g));
        }
      }
      break;
    }
  }
  return groups;
}

/// Per-group solve inputs, resolved sequentially (and model-free) before
/// the frontier fan so that identical solves can be deduplicated and the
/// parallel fan stays a pure function of them.
struct GroupPrep {
  std::vector<ResourceConfig> grid;
  int theta0_index = -1;  // index of a bit-equal theta0 in grid, or -1
  int owner = -1;         // lowest group index with identical solve inputs
  int canonical = -1;     // the cluster's canonical representative
  FrontierKey key;        // frontier-template cache key
};

}  // namespace

RaaResult RunRaa(const SchedulingContext& context,
                 const StageDecision& placement,
                 const std::vector<FastMciGroup>* fast_mci_groups,
                 const RaaOptions& options, int trace_parent) {
  Stopwatch timer;
  RaaResult result;
  const Stage& stage = *context.stage;
  const Cluster& cluster = *context.cluster;
  FGRO_CHECK(context.model != nullptr);
  const int m = stage.instance_count();
  if (!placement.feasible) return result;

  std::vector<FastMciGroup> groups =
      BuildGroups(context, placement, fast_mci_groups, options.clustering);
  result.num_groups = static_cast<int>(groups.size());

  // Per-machine co-residency count: an instance may only grow its container
  // up to its fair share of the machine's free capacity, which keeps the
  // per-instance searches independent while respecting Def. 5.2's capacity
  // constraints.
  std::vector<int> coresidents(static_cast<size_t>(cluster.size()), 0);
  for (int i = 0; i < m; ++i) {
    coresidents[static_cast<size_t>(
        placement.machine_of_instance[static_cast<size_t>(i)])]++;
  }

  const uint64_t model_tag = context.model->params_tag();
  // Predictions depend on the machine state only through DiscretizeState at
  // the *model's* degree (Channel 4), so two machines in the same bucket
  // are interchangeable for every latency below.
  const int model_dd = context.model->featurizer().discretization_degree();

  // Frontier compression (DESIGN.md §16): on, the fan builds one template
  // per (instance cluster, machine bucket) keyed content-wise in `cache`
  // and corrects each group's slot from it. Without a caller-shared cache
  // the solve uses a local one (templates shared within this solve only).
  FrontierCache local_cache(1 << 8);
  FrontierCache* cache = nullptr;
  if (context.frontier_compression) {
    cache = context.frontier_cache != nullptr ? context.frontier_cache
                                              : &local_cache;
    // Wholesale invalidation on model hot-swap, sequentially, before the
    // fan: entries under the current tag survive, stale tags drop.
    cache->EnsureModelTag(model_tag);
  }

  // Phase 0 (sequential, model-free): per-group theta grid, cache key, and
  // solve-input signature. Groups with bit-identical signatures would run
  // bit-identical solves — (θ, DiscretizeState) grids re-evaluated for
  // every group sharing a machine bucket and representative content — so
  // only the lowest-indexed "owner" computes; the rest copy its slot after
  // the fan. This dedup is value-exact and independent of compression.
  const int ng = static_cast<int>(groups.size());
  std::vector<GroupPrep> prep(static_cast<size_t>(ng));
  // Signature: representative content, canonical content, machine bucket,
  // grid content. The stage, theta0 and model are solve-wide. The full
  // tuple is the map key (no hashing) except the grid, whose hash is
  // verified bit-for-bit against the owner's grid below.
  std::map<std::array<uint64_t, 11>, int> owner_of;
  for (int gi = 0; gi < ng; ++gi) {
    GroupPrep& gp = prep[static_cast<size_t>(gi)];
    const FastMciGroup& group = groups[static_cast<size_t>(gi)];
    const Machine& machine = cluster.machine(group.representative_machine);
    const double share = static_cast<double>(
        coresidents[static_cast<size_t>(group.representative_machine)]);
    // Search the historically observed plan space: catalog entries within
    // the exploration window around theta0. Outside it the model has never
    // seen a configuration and its extrapolation is untrustworthy
    // (Appendix F.15: "we cannot lower the cores anymore ... the searching
    // space is still in a narrow range").
    for (const ResourceConfig& theta : FilterByCapacity(
             Hbo::ResourcePlanCatalog(),
             (machine.available_cores() + context.theta0.cores) / share,
             (machine.available_memory_gb() + context.theta0.memory_gb) /
                 share)) {
      if (theta.cores >= context.theta0.cores * kPlanExplorationLow &&
          theta.cores <= context.theta0.cores * kPlanExplorationHigh &&
          theta.memory_gb >=
              context.theta0.memory_gb * kPlanExplorationLow &&
          theta.memory_gb <=
              context.theta0.memory_gb * kPlanExplorationHigh) {
        gp.grid.push_back(theta);
      }
    }
    if (gp.grid.empty()) gp.grid.push_back(context.theta0);
    for (size_t t = 0; t < gp.grid.size(); ++t) {
      if (DoubleBits(gp.grid[t].cores) == DoubleBits(context.theta0.cores) &&
          DoubleBits(gp.grid[t].memory_gb) ==
              DoubleBits(context.theta0.memory_gb)) {
        gp.theta0_index = static_cast<int>(t);
        break;
      }
    }
    gp.canonical = group.canonical_representative >= 0
                       ? group.canonical_representative
                       : group.representative;

    const InstanceMeta& rep_meta =
        stage.instances[static_cast<size_t>(group.representative)];
    const InstanceMeta& canon_meta =
        stage.instances[static_cast<size_t>(gp.canonical)];
    const SystemState bucket = DiscretizeState(machine.state(), model_dd);
    const uint64_t grid_hash = FrontierGridHash(gp.grid);

    FrontierKey& key = gp.key;
    key.job_id = stage.job_id;
    key.stage_id = stage.id;
    key.template_id = stage.template_id;
    key.instance_count = m;
    key.hardware_type = machine.hardware().id;
    key.rows_bits = DoubleBits(canon_meta.input_rows);
    key.bytes_bits = DoubleBits(canon_meta.input_bytes);
    key.fraction_bits = DoubleBits(canon_meta.input_fraction);
    key.cpu_bits = DoubleBits(bucket.cpu_util);
    key.mem_bits = DoubleBits(bucket.mem_util);
    key.io_bits = DoubleBits(bucket.io_util);
    key.theta0_cores_bits = DoubleBits(context.theta0.cores);
    key.theta0_memory_bits = DoubleBits(context.theta0.memory_gb);
    key.grid_hash = grid_hash;
    key.model_tag = model_tag;

    const std::array<uint64_t, 11> signature = {
        DoubleBits(rep_meta.input_rows), DoubleBits(rep_meta.input_bytes),
        DoubleBits(rep_meta.input_fraction), key.rows_bits, key.bytes_bits,
        key.fraction_bits,
        static_cast<uint64_t>(static_cast<uint32_t>(key.hardware_type)),
        key.cpu_bits, key.mem_bits, key.io_bits, grid_hash};
    auto [it, inserted] = owner_of.emplace(signature, gi);
    gp.owner = it->second;
    if (!inserted && gp.owner != gi) {
      // The grid hash stands in for grid content inside the signature;
      // verify exactly so a 64-bit collision computes instead of aliasing.
      const std::vector<ResourceConfig>& own =
          prep[static_cast<size_t>(gp.owner)].grid;
      bool same = own.size() == gp.grid.size();
      for (size_t t = 0; same && t < own.size(); ++t) {
        same = DoubleBits(own[t].cores) == DoubleBits(gp.grid[t].cores) &&
               DoubleBits(own[t].memory_gb) ==
                   DoubleBits(gp.grid[t].memory_gb);
      }
      if (!same) gp.owner = gi;
    }
  }

  // Observability (counters resolved once; never read back, so replays are
  // byte-identical instrumented or not).
  obs::Counter* c_hits = nullptr;
  obs::Counter* c_misses = nullptr;
  obs::Counter* c_builds = nullptr;
  obs::Counter* c_corrections = nullptr;
  obs::Counter* c_patches = nullptr;
  obs::Counter* c_dedup = nullptr;
  if (context.obs.metrics != nullptr) {
    c_dedup = context.obs.metrics->GetCounter("so.raa.dedup_groups");
    if (cache != nullptr) {
      c_hits = context.obs.metrics->GetCounter("so.frontier.hits");
      c_misses = context.obs.metrics->GetCounter("so.frontier.misses");
      c_builds = context.obs.metrics->GetCounter("so.frontier.builds");
      c_corrections =
          context.obs.metrics->GetCounter("so.frontier.corrections");
      c_patches = context.obs.metrics->GetCounter("so.frontier.patches");
    }
  }

  // Instance-level MOO per group, on the representative's machine. Group
  // frontiers are independent, so they are constructed in a (possibly
  // parallel) fan into per-group slots and merged sequentially in group
  // order below — the incumbent accumulation (default_latency/default_cost)
  // therefore sees the exact FP operation order of the original serial
  // loop, and the result is byte-identical at any thread count. Every slot
  // is a pure function of its group's prep (and the model weights), never
  // of fan order or cache warmth, which is what keeps compressed replays
  // byte-identical too.
  InstanceMooSolver solver(context.cost_weights);
  struct GroupFrontier {
    bool ok = false;
    bool expired = false;
    std::vector<InstanceParetoPoint> frontier;
    double lat0 = 0.0;  // predicted latency of keeping theta0
  };
  std::vector<GroupFrontier> slots(static_cast<size_t>(ng));
  std::atomic<bool> any_abort{false};

  // Predicts `thetas` (plus theta0 appended when `theta0_index` < 0) for
  // one embedded instance on the group's machine in one PredictBatch call;
  // returns thetas.size() (+1) latencies.
  auto predict_thetas = [&](const LatencyModel::EmbeddedInstance& embedded,
                            const Machine& machine,
                            const std::vector<ResourceConfig>& thetas,
                            int theta0_index, std::vector<double>* lats) {
    const size_t total = thetas.size() + (theta0_index < 0 ? 1 : 0);
    std::vector<LatencyModel::PredictionCandidate> candidates;
    candidates.reserve(total);
    for (const ResourceConfig& theta : thetas) {
      candidates.push_back({theta, machine.state(), machine.hardware().id});
    }
    if (theta0_index < 0) {
      candidates.push_back(
          {context.theta0, machine.state(), machine.hardware().id});
    }
    lats->assign(total, 0.0);
    LatencyModel::BatchScratch scratch;
    context.model->PredictBatch(embedded, candidates, lats->data(), &scratch,
                                context.memo);
  };

  auto compute_group = [&](int gi) {
    GroupFrontier& slot = slots[static_cast<size_t>(gi)];
    // Best-effort early-out: once any group aborted, the whole RAA attempt
    // is discarded, so remaining groups skip their model bill.
    if (any_abort.load(std::memory_order_relaxed)) return;
    // Deadline check per group frontier: RAA aborts with ok=false and the
    // ladder keeps the (valid) placement on theta0.
    if (context.deadline.expired()) {
      slot.expired = true;
      any_abort.store(true, std::memory_order_relaxed);
      return;
    }
    const FastMciGroup& group = groups[static_cast<size_t>(gi)];
    const GroupPrep& gp = prep[static_cast<size_t>(gi)];
    const Machine& machine = cluster.machine(group.representative_machine);
    const std::vector<ResourceConfig>& grid = gp.grid;

    if (cache == nullptr) {
      // Uncompressed per-group solve: the bit-identical legacy oracle
      // (modulo the theta0-in-grid dedup, which reuses the identical grid
      // value instead of predicting it twice).
      Result<LatencyModel::EmbeddedInstance> embedded =
          context.model->Embed(stage, group.representative);
      if (!embedded.ok()) {
        any_abort.store(true, std::memory_order_relaxed);
        return;
      }
      std::vector<double> lats;
      predict_thetas(embedded.value(), machine, grid, gp.theta0_index,
                     &lats);
      slot.frontier = solver.SolveExhaustive(lats.data(), grid);
      slot.lat0 = gp.theta0_index >= 0
                      ? lats[static_cast<size_t>(gp.theta0_index)]
                      : lats.back();
    } else {
      // Compressed path: fetch or build the cluster's frontier template
      // (canonical representative), then correct for this group.
      std::shared_ptr<const FrontierEntry> tmpl;
      if (cache->Lookup(gp.key, grid, &tmpl)) {
        if (c_hits != nullptr) c_hits->Increment();
      } else {
        if (c_misses != nullptr) c_misses->Increment();
        Result<LatencyModel::EmbeddedInstance> canonical_embedded =
            context.model->Embed(stage, gp.canonical);
        if (!canonical_embedded.ok()) {
          any_abort.store(true, std::memory_order_relaxed);
          return;
        }
        // Incremental maintenance: a donor entry (same cluster, bucket,
        // theta0 and model; different grid — capacity or share moved the
        // exploration window) supplies exact latencies for every theta the
        // grids share, so only the new region is predicted. Patched builds
        // are bit-identical to from-scratch builds: each latency is a pure
        // function of (embedding, theta, bucket), whoever computed it.
        std::shared_ptr<const FrontierEntry> donor;
        cache->LookupDonor(gp.key, &donor);
        auto entry = std::make_shared<FrontierEntry>();
        entry->grid = grid;
        entry->latencies.assign(grid.size(), 0.0);
        std::vector<int> missing;
        bool donor_lat0 = false;
        if (donor != nullptr) {
          for (size_t t = 0; t < grid.size(); ++t) {
            bool found = false;
            for (size_t d = 0; d < donor->grid.size(); ++d) {
              if (DoubleBits(donor->grid[d].cores) ==
                      DoubleBits(grid[t].cores) &&
                  DoubleBits(donor->grid[d].memory_gb) ==
                      DoubleBits(grid[t].memory_gb)) {
                entry->latencies[t] = donor->latencies[d];
                found = true;
                break;
              }
            }
            if (!found) missing.push_back(static_cast<int>(t));
          }
          donor_lat0 = true;  // donor key shares the theta0 bits
        } else {
          missing.resize(grid.size());
          for (size_t t = 0; t < grid.size(); ++t) {
            missing[t] = static_cast<int>(t);
          }
        }
        const bool need_extra_theta0 = gp.theta0_index < 0 && !donor_lat0;
        if (!missing.empty() || need_extra_theta0) {
          std::vector<ResourceConfig> todo;
          todo.reserve(missing.size());
          for (int t : missing) {
            todo.push_back(grid[static_cast<size_t>(t)]);
          }
          std::vector<double> lats;
          predict_thetas(canonical_embedded.value(), machine, todo,
                         need_extra_theta0 ? -1 : 0, &lats);
          for (size_t j = 0; j < missing.size(); ++j) {
            entry->latencies[static_cast<size_t>(missing[j])] = lats[j];
          }
          if (need_extra_theta0) entry->lat0 = lats.back();
        }
        if (gp.theta0_index >= 0) {
          entry->lat0 =
              entry->latencies[static_cast<size_t>(gp.theta0_index)];
        } else if (donor_lat0) {
          entry->lat0 = donor->lat0;
        }
        entry->frontier = solver.SolveExhaustive(entry->latencies.data(),
                                                 entry->grid);
        cache->Insert(gp.key, entry);
        tmpl = std::move(entry);
        if (c_builds != nullptr) c_builds->Increment();
        if (donor != nullptr && c_patches != nullptr) c_patches->Increment();
      }

      if (options.correction_top_k <= 0 ||
          group.representative == gp.canonical) {
        // The template IS this group's solve (canonical == representative),
        // or corrections are disabled: share it verbatim.
        slot.frontier = tmpl->frontier;
        slot.lat0 = tmpl->lat0;
      } else {
        // Correction pass: re-rank K evenly spread template-frontier
        // points (endpoints included) plus theta0 with this group's true
        // representative embedding, then Pareto-filter. Bounded by the
        // quality knob; deterministic given (template, K, representative).
        const int f = static_cast<int>(tmpl->frontier.size());
        const int k = std::min(options.correction_top_k, f);
        std::vector<ResourceConfig> picked;
        picked.reserve(static_cast<size_t>(k));
        int last = -1;
        for (int j = 0; j < k; ++j) {
          const int idx =
              k == 1 ? 0 : static_cast<int>((static_cast<long>(j) * (f - 1) +
                                             (k - 1) / 2) /
                                            (k - 1));
          if (idx == last) continue;
          last = idx;
          picked.push_back(tmpl->frontier[static_cast<size_t>(idx)].theta);
        }
        int theta0_at = -1;
        for (size_t t = 0; t < picked.size(); ++t) {
          if (DoubleBits(picked[t].cores) ==
                  DoubleBits(context.theta0.cores) &&
              DoubleBits(picked[t].memory_gb) ==
                  DoubleBits(context.theta0.memory_gb)) {
            theta0_at = static_cast<int>(t);
            break;
          }
        }
        Result<LatencyModel::EmbeddedInstance> embedded =
            context.model->Embed(stage, group.representative);
        if (!embedded.ok()) {
          any_abort.store(true, std::memory_order_relaxed);
          return;
        }
        std::vector<double> lats;
        predict_thetas(embedded.value(), machine, picked, theta0_at, &lats);
        slot.frontier = solver.SolveExhaustive(lats.data(), picked);
        slot.lat0 = theta0_at >= 0 ? lats[static_cast<size_t>(theta0_at)]
                                   : lats.back();
        if (c_corrections != nullptr) c_corrections->Increment();
      }
    }
    if (slot.frontier.empty()) {
      any_abort.store(true, std::memory_order_relaxed);
      return;
    }
    slot.ok = true;
  };

  ParallelFor(context.worker_pool, ng, [&](int gi) {
    if (prep[static_cast<size_t>(gi)].owner != gi) return;  // follower
    compute_group(gi);
  });
  // Followers copy their owner's slot: same signature means the same pure
  // computation, so the copy is value-exact (and the whole point of the
  // within-solve dedup — one (θ, bucket) sweep per distinct signature).
  for (int gi = 0; gi < ng; ++gi) {
    const int owner = prep[static_cast<size_t>(gi)].owner;
    if (owner == gi) continue;
    slots[static_cast<size_t>(gi)] = slots[static_cast<size_t>(owner)];
    if (c_dedup != nullptr) c_dedup->Increment();
  }

  // Deterministic merge in group order.
  std::vector<std::vector<InstanceParetoPoint>> pareto_sets;
  std::vector<double> multiplicity;
  double default_latency = 0.0, default_cost = 0.0;
  pareto_sets.reserve(slots.size());
  for (GroupFrontier& slot : slots) {
    if (slot.expired) {
      result.solve_seconds = timer.ElapsedSeconds();
      return result;
    }
    if (!slot.ok) return result;
    const size_t gi = pareto_sets.size();
    pareto_sets.push_back(std::move(slot.frontier));
    multiplicity.push_back(
        static_cast<double>(groups[gi].instances.size()));
    default_latency = std::max(default_latency, slot.lat0);
    default_cost += slot.lat0 * context.cost_weights.Rate(context.theta0) *
                    static_cast<double>(groups[gi].instances.size());
  }

  // Stage-level hierarchical MOO.
  std::vector<StageParetoPoint> stage_pareto;
  if (options.algorithm == RaaAlgorithm::kPath) {
    stage_pareto = RaaPath(pareto_sets, multiplicity);
  } else {
    std::vector<std::vector<std::vector<double>>> solutions(
        pareto_sets.size());
    for (size_t i = 0; i < pareto_sets.size(); ++i) {
      for (const InstanceParetoPoint& p : pareto_sets[i]) {
        solutions[i].push_back({p.latency, p.cost});
      }
    }
    std::vector<GeneralStagePoint> general = GeneralHierarchicalMoo(
        solutions, {true, false}, multiplicity);
    stage_pareto.reserve(general.size());
    for (GeneralStagePoint& g : general) {
      stage_pareto.push_back(
          {g.objectives[0], g.objectives[1], std::move(g.choice)});
    }
  }
  if (stage_pareto.empty()) return result;

  // WUN recommendation, anchored at the incumbent: prefer the frontier
  // region that dominates HBO's default plan in BOTH latency and cost, so
  // the recommendation improves the stage rather than trading one objective
  // far away (Table 13: the plan dominates the default on 68-99% of
  // stages). If no point dominates the default, WUN runs on the full set.
  obs::ScopedSpan wun_span(context.obs.tracer, "so.wun", trace_parent);
  Stopwatch wun_timer;
  result.stage_pareto.reserve(stage_pareto.size());
  for (const StageParetoPoint& p : stage_pareto) {
    result.stage_pareto.push_back({p.latency, p.cost});
  }
  std::vector<int> dominating;
  for (size_t i = 0; i < stage_pareto.size(); ++i) {
    if (stage_pareto[i].latency <= default_latency + 1e-12 &&
        stage_pareto[i].cost <= default_cost + 1e-12) {
      dominating.push_back(static_cast<int>(i));
    }
  }
  if (dominating.empty()) {
    result.recommended_index =
        WeightedUtopiaNearest(result.stage_pareto, options.wun_weights);
    // WUN returns -1 when no finite point exists (a drifted model can emit
    // NaN objectives): abort with ok=false, the ladder keeps theta0.
    if (result.recommended_index < 0) return result;
  } else {
    std::vector<std::vector<double>> candidates;
    candidates.reserve(dominating.size());
    for (int i : dominating) {
      candidates.push_back(result.stage_pareto[static_cast<size_t>(i)]);
    }
    int pick = WeightedUtopiaNearest(candidates, options.wun_weights);
    if (pick < 0) return result;
    result.recommended_index = dominating[static_cast<size_t>(pick)];
  }
  if (context.obs.metrics != nullptr) {
    context.obs.metrics->GetLatencyHistogram("so.wun_seconds")
        ->Observe(wun_timer.ElapsedSeconds());
  }
  const StageParetoPoint& chosen =
      stage_pareto[static_cast<size_t>(result.recommended_index)];

  // Expand group choices to per-instance resource plans.
  result.theta_of_instance.assign(static_cast<size_t>(m), context.theta0);
  for (size_t g = 0; g < groups.size(); ++g) {
    const ResourceConfig& theta =
        pareto_sets[g][static_cast<size_t>(chosen.choice[g])].theta;
    for (int i : groups[g].instances) {
      result.theta_of_instance[static_cast<size_t>(i)] = theta;
    }
  }
  result.ok = true;
  result.solve_seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace fgro
