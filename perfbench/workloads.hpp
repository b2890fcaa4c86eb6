// The benchmark's three workloads, generated from a seed and declared
// through the public ScenarioBuilder API.
//
// Every workload runs the phases warmup → traffic → drain. Warm-up only
// lets the declared subscriptions propagate; no publisher or mover runs
// in it. Traffic starts the open-loop feed (and the movers); drain lets
// in-flight notifications, relocations and replays finish. The measured
// window is traffic + drain, declared as 100 ms phases (`traffic`,
// `traffic.1`, ..., `drain`, `drain.1`, ...) that the benchmark times one
// by one.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "src/filter/filter.hpp"
#include "src/location/ld_spec.hpp"
#include "src/scenario/scenario.hpp"

namespace perfbench {

/// Scaling knobs. Measured runs use the defaults; the self-test shrinks
/// the workloads, and the warm-up exponent halves the population.
struct Size {
  double population = 1.0;  // subscriber, mover and producer counts
  double traffic = 1.0;     // virtual length of the traffic phase
  std::size_t shards = 0;   // 0 = the default engine
};

struct Workload {
  rebeca::scenario::ScenarioBuilder builder;
  /// Static subscriptions of the tracked clients, in declaration order.
  std::vector<rebeca::filter::Filter> filters;
  /// Location-dependent subscriptions and their consumers' start
  /// locations, in declaration order.
  std::vector<rebeca::location::LdSpec> ld_specs;
  std::vector<std::string> ld_starts;
  /// Phases before the measured window.
  std::size_t warmup_phases = 1;
};

/// Generates the named workload from `seed`. Throws std::invalid_argument
/// on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, const Size& size);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
