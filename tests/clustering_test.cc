#include <gtest/gtest.h>

#include <set>

#include "clustering/dbscan.h"
#include "clustering/kde1d.h"
#include "clustering/machine_clustering.h"
#include "common/rng.h"
#include "test_util.h"

namespace fgro {
namespace {

TEST(Kde1dTest, TwoSeparatedBlobsSplit) {
  Rng rng(1);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) values.push_back(rng.Normal(0.0, 0.3));
  for (int i = 0; i < 200; ++i) values.push_back(rng.Normal(10.0, 0.3));
  std::vector<int> labels = Kde1dCluster(values);
  EXPECT_GE(NumClusters(labels), 2);
  // The two blobs must not share a label.
  std::set<int> low_labels, high_labels;
  for (size_t i = 0; i < values.size(); ++i) {
    (values[i] < 5.0 ? low_labels : high_labels).insert(labels[i]);
  }
  for (int l : low_labels) EXPECT_EQ(high_labels.count(l), 0u);
}

TEST(Kde1dTest, IdenticalValuesOneCluster) {
  std::vector<double> values(100, 3.14);
  std::vector<int> labels = Kde1dCluster(values);
  EXPECT_EQ(NumClusters(labels), 1);
}

TEST(Kde1dTest, LabelsOrderedByValue) {
  Rng rng(2);
  std::vector<double> values;
  for (int i = 0; i < 150; ++i) values.push_back(rng.Normal(0.0, 0.2));
  for (int i = 0; i < 150; ++i) values.push_back(rng.Normal(6.0, 0.2));
  for (int i = 0; i < 150; ++i) values.push_back(rng.Normal(12.0, 0.2));
  std::vector<int> labels = Kde1dCluster(values);
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      if (values[i] < values[j]) {
        EXPECT_LE(labels[i], labels[j]);
      }
    }
    if (i > 30) break;  // spot check to keep the O(n^2) loop cheap
  }
}

TEST(Kde1dTest, MaxClustersRespected) {
  Rng rng(3);
  std::vector<double> values;
  for (int blob = 0; blob < 60; ++blob) {
    for (int i = 0; i < 10; ++i) {
      values.push_back(blob * 10.0 + rng.Normal(0.0, 0.1));
    }
  }
  Kde1dOptions options;
  options.max_clusters = 8;
  options.grid_size = 512;
  std::vector<int> labels = Kde1dCluster(values, options);
  EXPECT_LE(NumClusters(labels), 8);
}

TEST(Kde1dTest, SmallInputs) {
  EXPECT_EQ(Kde1dCluster({}).size(), 0u);
  EXPECT_EQ(Kde1dCluster({1.0}), (std::vector<int>{0}));
  std::vector<int> two = Kde1dCluster({1.0, 1.0});
  EXPECT_EQ(two, (std::vector<int>{0, 0}));
}

TEST(DbscanTest, TwoBlobsAndNoise) {
  Rng rng(4);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.Normal(0, 0.1), rng.Normal(0, 0.1)});
  }
  for (int i = 0; i < 50; ++i) {
    points.push_back({rng.Normal(5, 0.1), rng.Normal(5, 0.1)});
  }
  points.push_back({2.5, 2.5});  // isolated noise point
  std::vector<int> labels = Dbscan(points, {.eps = 0.5, .min_pts = 4});
  // Blob members share labels; the two blobs differ.
  EXPECT_EQ(labels[0], labels[10]);
  EXPECT_EQ(labels[50], labels[60]);
  EXPECT_NE(labels[0], labels[50]);
  // The noise point is its own singleton cluster (never -1).
  EXPECT_GE(labels[100], 0);
  EXPECT_NE(labels[100], labels[0]);
  EXPECT_NE(labels[100], labels[50]);
}

TEST(DbscanTest, EveryPointGetsACluster) {
  Rng rng(5);
  std::vector<std::vector<double>> points;
  for (int i = 0; i < 100; ++i) {
    points.push_back({rng.Uniform(-10, 10), rng.Uniform(-10, 10)});
  }
  std::vector<int> labels = Dbscan(points, {.eps = 0.1, .min_pts = 3});
  for (int l : labels) EXPECT_GE(l, 0);
}

TEST(DbscanTest, EmptyInput) {
  EXPECT_TRUE(Dbscan({}, {}).empty());
}

TEST(MachineClusteringTest, GroupsShareBucketAndHardware) {
  Cluster cluster(ClusterOptions{.num_machines = 64, .seed = 6});
  std::vector<int> all;
  for (int i = 0; i < cluster.size(); ++i) all.push_back(i);
  std::vector<MachineClusterGroup> groups = ClusterMachines(cluster, all, 4);
  EXPECT_GT(groups.size(), 1u);
  size_t total = 0;
  for (const MachineClusterGroup& g : groups) {
    total += g.machine_ids.size();
    ASSERT_FALSE(g.machine_ids.empty());
    int hw = cluster.machine(g.machine_ids[0]).hardware().id;
    double max_cpu = 0.0;
    for (int id : g.machine_ids) {
      EXPECT_EQ(cluster.machine(id).hardware().id, hw);
      max_cpu = std::max(max_cpu, cluster.machine(id).state().cpu_util);
    }
    // Representative is the busiest member (conservative estimates).
    EXPECT_DOUBLE_EQ(cluster.machine(g.representative).state().cpu_util,
                     max_cpu);
  }
  EXPECT_EQ(total, static_cast<size_t>(cluster.size()));
}

TEST(MachineClusteringTest, CoarserDegreeGivesFewerClusters) {
  Cluster cluster(ClusterOptions{.num_machines = 128, .seed = 7});
  std::vector<int> all;
  for (int i = 0; i < cluster.size(); ++i) all.push_back(i);
  EXPECT_LE(ClusterMachines(cluster, all, 2).size(),
            ClusterMachines(cluster, all, 10).size());
}

TEST(InstanceClusteringTest, PartitionsAndSortsByRows) {
  Stage stage = testing_util::MakeJoinStage(12);
  std::vector<InstanceClusterGroup> groups = ClusterInstancesByRows(stage);
  size_t total = 0;
  for (const InstanceClusterGroup& g : groups) {
    total += g.instance_ids.size();
    // Members sorted by descending rows; representative is the heaviest.
    for (size_t i = 1; i < g.instance_ids.size(); ++i) {
      EXPECT_GE(
          stage.instances[static_cast<size_t>(g.instance_ids[i - 1])].input_rows,
          stage.instances[static_cast<size_t>(g.instance_ids[i])].input_rows);
    }
    EXPECT_EQ(g.representative, g.instance_ids.front());
  }
  EXPECT_EQ(total, static_cast<size_t>(stage.instance_count()));
}

}  // namespace
}  // namespace fgro
