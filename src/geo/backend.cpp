#include "geo/backend.h"

#include <fstream>

#include "geo/import/osm_xml.h"
#include "util/contracts.h"

namespace o2o::geo {

namespace {

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

/// Splits the source list of a network-backed CLI spec into the spec's
/// graph fields. Returns false on a malformed list.
bool parse_sources(std::string_view sources, DistanceBackendSpec* spec) {
  std::string_view rest = sources;
  std::vector<std::string_view> parts;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    parts.push_back(rest.substr(0, comma));
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
  }
  if (parts.empty() || parts.front().empty()) return false;
  if (ends_with(parts.front(), ".osm")) {
    spec->osm_xml = std::string(parts.front());
    return parts.size() == 1;
  }
  if (parts.size() != 2) return false;
  spec->dimacs_gr = std::string(parts[0]);
  spec->dimacs_co = std::string(parts[1]);
  return true;
}

/// write_dimacs stamps its `.co` output with this comment; files bearing
/// it store plane km * 1e6, everything else is assumed to be a road
/// instance (micro-degree coordinates).
DimacsOptions detect_dimacs_options(const std::string& co_path) {
  std::ifstream co(co_path);
  std::string first_line;
  std::getline(co, first_line);
  DimacsOptions options;
  if (first_line.find("o2o RoadNetwork export") != std::string::npos) {
    options.coordinate_scale = 1e-6;
  } else {
    options.project_coordinates = true;
  }
  return options;
}

std::shared_ptr<const RoadNetwork> resolve_network(const DistanceBackendSpec& spec) {
  const int sources = (spec.network != nullptr ? 1 : 0) +
                      (!spec.dimacs_gr.empty() || !spec.dimacs_co.empty() ? 1 : 0) +
                      (!spec.osm_xml.empty() ? 1 : 0);
  O2O_EXPECTS(sources == 1);
  if (spec.network != nullptr) return spec.network;
  if (!spec.osm_xml.empty()) {
    return std::make_shared<const RoadNetwork>(read_osm_xml_file(spec.osm_xml));
  }
  O2O_EXPECTS(!spec.dimacs_gr.empty() && !spec.dimacs_co.empty());
  const DimacsOptions options = spec.dimacs == DimacsOptions{}
                                    ? detect_dimacs_options(spec.dimacs_co)
                                    : spec.dimacs;
  return std::make_shared<const RoadNetwork>(
      read_dimacs_files(spec.dimacs_gr, spec.dimacs_co, options));
}

}  // namespace

std::string_view distance_backend_name(DistanceBackendKind kind) noexcept {
  switch (kind) {
    case DistanceBackendKind::kEuclidean: return "euclid";
    case DistanceBackendKind::kManhattan: return "manhattan";
    case DistanceBackendKind::kCircuity: return "circuity";
    case DistanceBackendKind::kDijkstra: return "dijkstra";
  }
  return "unknown";
}

bool parse_distance_backend(std::string_view text, DistanceBackendSpec* out) {
  O2O_EXPECTS(out != nullptr);
  const std::size_t colon = text.find(':');
  const std::string_view kind = text.substr(0, colon);
  const std::string_view argument =
      colon == std::string_view::npos ? std::string_view{} : text.substr(colon + 1);

  DistanceBackendSpec spec;
  if (kind == "euclid" || kind == "euclidean") {
    if (colon != std::string_view::npos) return false;
    spec.kind = DistanceBackendKind::kEuclidean;
  } else if (kind == "manhattan") {
    if (colon != std::string_view::npos) return false;
    spec.kind = DistanceBackendKind::kManhattan;
  } else if (kind == "circuity") {
    spec.kind = DistanceBackendKind::kCircuity;
    if (colon != std::string_view::npos) {
      try {
        std::size_t consumed = 0;
        spec.circuity_factor = std::stod(std::string(argument), &consumed);
        if (consumed != argument.size()) return false;
      } catch (...) {
        return false;
      }
      if (spec.circuity_factor < 1.0) return false;
    }
  } else if (kind == "dijkstra") {
    spec.kind = DistanceBackendKind::kDijkstra;
    if (colon == std::string_view::npos || !parse_sources(argument, &spec)) return false;
  } else {
    return false;
  }
  *out = spec;
  return true;
}

DistanceBackend make_distance_oracle(const DistanceBackendSpec& spec) {
  DistanceBackend backend;
  backend.spec = spec;
  switch (spec.kind) {
    case DistanceBackendKind::kEuclidean:
      backend.oracle = std::make_shared<const EuclideanOracle>();
      return backend;
    case DistanceBackendKind::kManhattan:
      backend.oracle = std::make_shared<const ManhattanOracle>();
      return backend;
    case DistanceBackendKind::kCircuity:
      O2O_EXPECTS(spec.circuity_factor >= 1.0);
      backend.oracle = std::make_shared<const CircuityOracle>(spec.circuity_factor);
      return backend;
    case DistanceBackendKind::kDijkstra: {
      backend.network = resolve_network(spec);
      backend.graph_fingerprint = backend.network->fingerprint();
      backend.oracle = std::make_shared<const NetworkOracle>(
          *backend.network, spec.cache_capacity == 0 ? NetworkOracle::kAutoCapacity
                                                     : spec.cache_capacity);
      return backend;
    }
  }
  O2O_EXPECTS(false);  // unreachable: every kind returns above
  return backend;
}

}  // namespace o2o::geo
