// The pluggable distance-backend API: one declarative spec names the
// distance function a run uses (a metric surface, or Dijkstra trees over
// a programmatic or imported city graph), one factory resolves it into a
// live oracle plus the provenance needed to audit the run (the graph
// fingerprint). Every entry point — the examples, the benches, o2o_serve
// — constructs its oracle through make_distance_oracle; constructing
// NetworkOracle by concrete type is reserved for code that tests or
// benchmarks the engine itself.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "geo/distance_oracle.h"
#include "geo/import/dimacs.h"
#include "geo/road_network.h"

namespace o2o::geo {

enum class DistanceBackendKind : std::uint8_t {
  kEuclidean,  ///< straight-line (the paper's surface)
  kManhattan,  ///< rectilinear grid streets
  kCircuity,   ///< Euclidean * circuity factor
  kDijkstra,   ///< NetworkOracle: cached Dijkstra trees
};

/// Stable CLI/describe() name: "euclid", "manhattan", "circuity",
/// "dijkstra".
std::string_view distance_backend_name(DistanceBackendKind kind) noexcept;

/// Declarative description of a distance backend. Metric kinds need at
/// most `circuity_factor`; kDijkstra needs exactly one graph source: a
/// programmatic `network`, a DIMACS `.gr`/`.co` pair, or an OSM XML
/// extract.
struct DistanceBackendSpec {
  DistanceBackendKind kind = DistanceBackendKind::kEuclidean;

  /// kCircuity only (>= 1; ~1.3 approximates US road circuity).
  double circuity_factor = 1.3;

  /// Programmatic graph source (shared so the resolved backend can keep
  /// it alive past the caller's scope).
  std::shared_ptr<const RoadNetwork> network;
  /// DIMACS source: both paths or neither.
  std::string dimacs_gr;
  std::string dimacs_co;
  /// Import options for the DIMACS pair. Leave default-constructed to
  /// auto-detect: files exported by write_dimacs (recognized by their
  /// header comment) read back with coordinate_scale = 1e-6, anything
  /// else is treated as a road-instance file (micro-degree coordinates,
  /// projected).
  DimacsOptions dimacs;
  /// OSM XML source.
  std::string osm_xml;

  /// Oracle cache capacity; 0 = auto-size to the frame working set.
  std::size_t cache_capacity = 0;

  friend bool operator==(const DistanceBackendSpec&, const DistanceBackendSpec&) = default;
};

/// Parses the CLI grammar `kind[:source[,source2]]`:
///   euclid | euclidean
///   manhattan
///   circuity[:FACTOR]
///   dijkstra:GRAPH.gr,GRAPH.co | dijkstra:EXTRACT.osm
/// (.osm is recognized by suffix). Returns false on an unknown kind or
/// malformed source list, leaving *out untouched.
bool parse_distance_backend(std::string_view text, DistanceBackendSpec* out);

/// A resolved backend: the live oracle plus everything needed to keep it
/// alive and to audit the run. The oracle references `network` (when
/// network-backed); keep the whole struct (or at least `network`) alive
/// while the oracle is in use.
struct DistanceBackend {
  DistanceBackendSpec spec;
  std::shared_ptr<const DistanceOracle> oracle;
  std::shared_ptr<const RoadNetwork> network;  ///< null for metric kinds
  /// RoadNetwork::fingerprint() of the resolved graph; 0 for metric kinds.
  std::uint64_t graph_fingerprint = 0;
};

/// Resolves a spec: imports/adopts the graph and constructs the oracle.
/// Invalid specs (missing source, circuity factor < 1, unreadable file)
/// throw ContractViolation.
DistanceBackend make_distance_oracle(const DistanceBackendSpec& spec);

}  // namespace o2o::geo
