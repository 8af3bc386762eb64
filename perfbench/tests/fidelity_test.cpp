// Fidelity of the benchmark's measuring shims.
//
//  1. CountingOracle forwards every DistanceOracle virtual to the same
//     virtual of the wrapped oracle, and reports its capabilities.
//  2. On a short window of every workload, the served responses are
//     bit-identical with and without the counting oracle under the
//     session, and with and without the traced layer replay; the replay
//     itself reproduces every served frame.
//
// Exits 0 when every check holds. Writes the road graph of the road
// workload under ./fidelity_work (the current directory).
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "counting_oracle.h"
#include "layers.h"
#include "workload.h"

using namespace o2o;
using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "FAILED: %s\n", what.c_str());
}

/// Answers each virtual with its own constant and records which ran.
class RecordingOracle final : public geo::DistanceOracle {
 public:
  mutable std::string last;

  double distance(const geo::Point&, const geo::Point&) const override {
    last = "distance";
    return 1.0;
  }
  std::vector<double> distances_from(const geo::Point&,
                                     std::span<const geo::Point> targets) const override {
    last = "distances_from";
    return std::vector<double>(targets.size(), 2.0);
  }
  std::vector<double> distances_to(std::span<const geo::Point> sources,
                                   const geo::Point&) const override {
    last = "distances_to";
    return std::vector<double>(sources.size(), 3.0);
  }
  void distances_from_into(const geo::Point&, std::span<const geo::Point> targets,
                           double* out) const override {
    last = "distances_from_into";
    for (std::size_t i = 0; i < targets.size(); ++i) out[i] = 4.0;
  }
  void distances_to_into(std::span<const geo::Point> sources, const geo::Point&,
                         double* out) const override {
    last = "distances_to_into";
    for (std::size_t i = 0; i < sources.size(); ++i) out[i] = 5.0;
  }
  void prepare_frame(std::span<const geo::Point>) const override { last = "prepare_frame"; }
  Capabilities capabilities() const noexcept override {
    return {.concurrent_queries = false, .symmetric_distances = false};
  }
};

void test_forwarding() {
  const RecordingOracle inner;
  const CountingOracle counted(inner);
  const std::vector<geo::Point> points = {{0, 0}, {1, 1}};
  double row[2] = {0, 0};

  expect(counted.distance(points[0], points[1]) == 1.0 && inner.last == "distance",
         "distance is forwarded");
  expect(counted.distances_from(points[0], points) == std::vector<double>{2.0, 2.0} &&
             inner.last == "distances_from",
         "distances_from is forwarded");
  expect(counted.distances_to(points, points[0]) == std::vector<double>{3.0, 3.0} &&
             inner.last == "distances_to",
         "distances_to is forwarded");
  counted.distances_from_into(points[0], points, row);
  expect(row[0] == 4.0 && inner.last == "distances_from_into",
         "distances_from_into is forwarded");
  counted.distances_to_into(points, points[0], row);
  expect(row[1] == 5.0 && inner.last == "distances_to_into", "distances_to_into is forwarded");
  counted.prepare_frame(points);
  expect(inner.last == "prepare_frame", "prepare_frame is forwarded");
  expect(counted.capabilities() == inner.capabilities(), "capabilities are forwarded");

  const CountingOracle::Totals totals = counted.totals();
  expect(totals.calls == 5, "five queries counted");
  expect(totals.cells == 1 + 4 * points.size(), "row cells counted");
}

void test_workload(const WorkloadSpec& full) {
  WorkloadSpec spec = full;
  spec.window_minutes = 6;
  const std::string dir = "fidelity_work/" + spec.name;
  std::filesystem::create_directories(dir);
  const City city = make_city(spec, Seeds{3, 4}, dir);

  const InProcessResult plain = run_in_process(spec, city, {.keep_responses = true});
  const InProcessResult counted =
      run_in_process(spec, city, {.decorate_service = true, .keep_responses = true});
  const InProcessResult traced =
      run_in_process(spec, city, {.traced = true, .keep_responses = true});

  expect(!plain.responses.empty(), spec.name + ": the window serves frames");
  expect(plain.errors == 0 && counted.errors == 0, spec.name + ": clean wire round trips");
  expect(counted.responses == plain.responses,
         spec.name + ": responses identical with the counting oracle");
  expect(traced.responses == plain.responses,
         spec.name + ": responses identical with the layer replay");
  expect(traced.errors == 0, spec.name + ": layer replay reproduces every frame (" +
                                 traced.first_error + ")");
}

}  // namespace

int main() {
  test_forwarding();
  for (const WorkloadSpec& spec : workloads()) test_workload(spec);
  if (failures == 0) std::printf("fidelity: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
