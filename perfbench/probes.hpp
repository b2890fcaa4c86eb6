// Per-layer replays for the traced run. They run after the simulation
// has finished, so they cannot perturb it, and call each layer's public
// functions directly with the workload's own filters and publication
// log. Each replay is one span around a batch of calls; per-call costs
// are the span's totals over its call count.
#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <cstdint>
#include <map>
#include <string>

#include "src/scenario/scenario.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

using Values = std::map<std::string, double>;

/// Table sizes and relocation state summed over all brokers.
struct BrokerGauges {
  double forward_entries = 0;
  double forward_tags = 0;
  double match_entries = 0;
  double cover_entries = 0;
  double virtuals = 0;
  double replayed = 0;
  double replay_truncated = 0;
  double reexposed = 0;
  double pins = 0;
  double pending_moveouts = 0;
  double ld_transits = 0;
};

[[nodiscard]] BrokerGauges broker_gauges(rebeca::scenario::Scenario& s);

/// Runs the four replays (MatchIndex::collect, compute_forward_set,
/// LdSpec::concrete_filter, Filter::matches) under `tracer` and stores
/// their per-call costs in `out`.
void run_probes(Tracer& tracer, const Workload& w,
                const rebeca::scenario::Scenario& s, Values& out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_HPP
