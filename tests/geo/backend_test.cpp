// The pluggable distance-backend API: CLI grammar parsing, factory
// resolution for every kind, and the DispatchConfig integration (validate
// rules, the describe() provenance keys).
#include "geo/backend.h"

#include <gtest/gtest.h>

#include <string>

#include "core/dispatch_config.h"
#include "geo/import/dimacs.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace o2o::geo {
namespace {

RoadNetwork small_city(std::uint64_t seed) {
  Rng rng(seed);
  RoadNetwork network;
  const int side = 8;
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      network.add_node(Point{static_cast<double>(x), static_cast<double>(y)});
    }
  }
  const auto at = [side](int x, int y) { return static_cast<NodeId>(y * side + x); };
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      if (x + 1 < side) {
        network.add_bidirectional_edge(at(x, y), at(x + 1, y),
                                       static_cast<double>(rng.uniform_int(1, 4)));
      }
      if (y + 1 < side) {
        network.add_bidirectional_edge(at(x, y), at(x, y + 1),
                                       static_cast<double>(rng.uniform_int(1, 4)));
      }
    }
  }
  return network;
}

// --- parse_distance_backend ------------------------------------------------

TEST(ParseDistanceBackend, AcceptsTheGrammar) {
  DistanceBackendSpec spec;
  ASSERT_TRUE(parse_distance_backend("euclid", &spec));
  EXPECT_EQ(spec.kind, DistanceBackendKind::kEuclidean);
  ASSERT_TRUE(parse_distance_backend("euclidean", &spec));
  EXPECT_EQ(spec.kind, DistanceBackendKind::kEuclidean);
  ASSERT_TRUE(parse_distance_backend("manhattan", &spec));
  EXPECT_EQ(spec.kind, DistanceBackendKind::kManhattan);

  ASSERT_TRUE(parse_distance_backend("circuity", &spec));
  EXPECT_EQ(spec.kind, DistanceBackendKind::kCircuity);
  EXPECT_DOUBLE_EQ(spec.circuity_factor, 1.3);
  ASSERT_TRUE(parse_distance_backend("circuity:1.45", &spec));
  EXPECT_DOUBLE_EQ(spec.circuity_factor, 1.45);

  ASSERT_TRUE(parse_distance_backend("dijkstra:city.gr,city.co", &spec));
  EXPECT_EQ(spec.kind, DistanceBackendKind::kDijkstra);
  EXPECT_EQ(spec.dimacs_gr, "city.gr");
  EXPECT_EQ(spec.dimacs_co, "city.co");

  ASSERT_TRUE(parse_distance_backend("dijkstra:extract.osm", &spec));
  EXPECT_EQ(spec.osm_xml, "extract.osm");
}

TEST(ParseDistanceBackend, RejectsMalformedSpecs) {
  DistanceBackendSpec spec;
  spec.kind = DistanceBackendKind::kManhattan;  // canary: must stay untouched
  EXPECT_FALSE(parse_distance_backend("warp-drive", &spec));
  EXPECT_FALSE(parse_distance_backend("euclid:what", &spec));
  EXPECT_FALSE(parse_distance_backend("circuity:0.5", &spec));
  EXPECT_FALSE(parse_distance_backend("circuity:fast", &spec));
  EXPECT_FALSE(parse_distance_backend("dijkstra", &spec));
  EXPECT_FALSE(parse_distance_backend("dijkstra:only.gr", &spec));
  EXPECT_FALSE(parse_distance_backend("dijkstra:a.gr,b.co,c.extra", &spec));
  EXPECT_FALSE(parse_distance_backend("dijkstra:extract.osm,b.co", &spec));
  // `ch` is not a backend kind, whatever its sources.
  EXPECT_FALSE(parse_distance_backend("ch", &spec));
  EXPECT_FALSE(parse_distance_backend("ch:", &spec));
  EXPECT_FALSE(parse_distance_backend("ch:city.gr,city.co", &spec));
  EXPECT_FALSE(parse_distance_backend("ch:city.gr,city.co,city.hier", &spec));
  EXPECT_FALSE(parse_distance_backend("ch:extract.osm", &spec));
  EXPECT_EQ(spec.kind, DistanceBackendKind::kManhattan);
}

// --- make_distance_oracle --------------------------------------------------

TEST(MakeDistanceOracle, MetricKinds) {
  const Point a{0.0, 0.0};
  const Point b{3.0, 4.0};
  DistanceBackendSpec spec;
  const DistanceBackend euclid = make_distance_oracle(spec);
  EXPECT_DOUBLE_EQ(euclid.oracle->distance(a, b), 5.0);
  EXPECT_EQ(euclid.network, nullptr);
  EXPECT_EQ(euclid.graph_fingerprint, 0u);

  spec.kind = DistanceBackendKind::kManhattan;
  EXPECT_DOUBLE_EQ(make_distance_oracle(spec).oracle->distance(a, b), 7.0);

  spec.kind = DistanceBackendKind::kCircuity;
  spec.circuity_factor = 1.2;
  EXPECT_DOUBLE_EQ(make_distance_oracle(spec).oracle->distance(a, b), 6.0);
}

TEST(MakeDistanceOracle, DijkstraFromProgrammaticNetwork) {
  auto network = std::make_shared<const RoadNetwork>(small_city(3));
  DistanceBackendSpec spec;
  spec.kind = DistanceBackendKind::kDijkstra;
  spec.network = network;
  const DistanceBackend backend = make_distance_oracle(spec);
  EXPECT_EQ(backend.network, network);
  EXPECT_EQ(backend.graph_fingerprint, network->fingerprint());
  const NetworkOracle reference(*network);
  const Point a{0.3, 0.4};
  const Point b{6.6, 5.2};
  EXPECT_EQ(backend.oracle->distance(a, b), reference.distance(a, b));
  EXPECT_FALSE(backend.oracle->capabilities().symmetric_distances);
}

TEST(MakeDistanceOracle, DijkstraFromExportedDimacsAutoDetects) {
  const RoadNetwork network = small_city(7);
  const std::string gr = testing::TempDir() + "/backend_city.gr";
  const std::string co = testing::TempDir() + "/backend_city.co";
  ASSERT_TRUE(write_dimacs_files(network, gr, co));
  DistanceBackendSpec spec;
  spec.kind = DistanceBackendKind::kDijkstra;
  spec.dimacs_gr = gr;
  spec.dimacs_co = co;
  const DistanceBackend backend = make_distance_oracle(spec);
  // Auto-detection recognizes our export header and reads plane km back.
  EXPECT_EQ(backend.graph_fingerprint, network.fingerprint());
  const NetworkOracle reference(network);
  const Point a{1.2, 0.7};
  const Point b{5.9, 6.1};
  EXPECT_EQ(backend.oracle->distance(a, b), reference.distance(a, b));
}

TEST(MakeDistanceOracle, RejectsAmbiguousOrMissingSources) {
  DistanceBackendSpec spec;
  spec.kind = DistanceBackendKind::kDijkstra;
  EXPECT_THROW(make_distance_oracle(spec), ContractViolation);  // no source
  spec.network = std::make_shared<const RoadNetwork>(small_city(1));
  spec.osm_xml = "extract.osm";
  EXPECT_THROW(make_distance_oracle(spec), ContractViolation);  // two sources
}

// --- DispatchConfig integration --------------------------------------------

TEST(DispatchConfigBackend, DescribeCarriesProvenance) {
  auto network = std::make_shared<const RoadNetwork>(small_city(19));
  DistanceBackendSpec spec;
  spec.kind = DistanceBackendKind::kDijkstra;
  spec.network = network;
  const DistanceBackend backend = make_distance_oracle(spec);

  DispatchConfig config;
  config.with_distance_backend(backend);
  EXPECT_TRUE(config.validate().empty());
  EXPECT_EQ(config.distance_graph_fingerprint(), network->fingerprint());

  std::string kind_value;
  std::string fingerprint_value;
  for (const auto& [key, value] : config.describe()) {
    if (key == "distance_backend") kind_value = value;
    if (key == "distance_graph_fingerprint") fingerprint_value = value;
  }
  EXPECT_EQ(kind_value, "dijkstra");
  EXPECT_EQ(fingerprint_value.size(), 16u);  // %016llx
  EXPECT_NE(fingerprint_value, "none");
}

TEST(DispatchConfigBackend, SpecAloneDescribesAsUnresolved) {
  DispatchConfig config;  // default spec: euclid
  std::string kind_value;
  std::string fingerprint_value;
  for (const auto& [key, value] : config.describe()) {
    if (key == "distance_backend") kind_value = value;
    if (key == "distance_graph_fingerprint") fingerprint_value = value;
  }
  EXPECT_EQ(kind_value, "euclid");
  EXPECT_EQ(fingerprint_value, "none");
}

TEST(DispatchConfigBackend, ValidateRejectsBadSpecs) {
  const auto has_backend_error = [](const DispatchConfig& config) {
    for (const ConfigError& error : config.validate()) {
      if (error.field == ConfigField::kDistanceBackend) return true;
    }
    return false;
  };

  DistanceBackendSpec bad_circuity;
  bad_circuity.kind = DistanceBackendKind::kCircuity;
  bad_circuity.circuity_factor = 0.5;
  EXPECT_TRUE(has_backend_error(DispatchConfig{}.with_distance_backend(bad_circuity)));

  DistanceBackendSpec no_source;
  no_source.kind = DistanceBackendKind::kDijkstra;
  EXPECT_TRUE(has_backend_error(DispatchConfig{}.with_distance_backend(no_source)));

  DistanceBackendSpec half_pair;
  half_pair.kind = DistanceBackendKind::kDijkstra;
  half_pair.dimacs_gr = "only.gr";
  EXPECT_TRUE(has_backend_error(DispatchConfig{}.with_distance_backend(half_pair)));

  DistanceBackendSpec good;
  good.kind = DistanceBackendKind::kDijkstra;
  good.network = std::make_shared<const RoadNetwork>(small_city(23));
  EXPECT_FALSE(has_backend_error(DispatchConfig{}.with_distance_backend(good)));
}

}  // namespace
}  // namespace o2o::geo
