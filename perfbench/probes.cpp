#include "probes.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "src/routing/match_index.hpp"
#include "src/routing/strategy.hpp"

namespace perfbench {

using namespace rebeca;

namespace {

// Hop indices the concrete-filter replay instantiates: every filter
// index on the longest consumer→producer path of the 40-broker tree.
constexpr std::size_t kMaxHop = 7;
// Caps that keep a traced run's replays within a second or two.
constexpr std::size_t kMaxMatchPairs = 4'000'000;
constexpr std::size_t kForwardSetCalls = 20;

/// The filters the replays run over: the tracked static subscriptions,
/// or — for a workload of location-dependent subscriptions — each one's
/// concrete filter at its consumer's start location and first hop (the
/// shape the first transit broker indexes).
std::vector<filter::Filter> probe_filters(const Workload& w,
                                          const scenario::Scenario& s) {
  std::vector<filter::Filter> out = w.filters;
  for (std::size_t i = 0; i < w.ld_specs.size(); ++i) {
    const location::LocationGraph& g = *s.locations();
    out.push_back(w.ld_specs[i].concrete_filter(g, g.id_of(w.ld_starts[i]), 1));
  }
  return out;
}

SubKey key_of(std::size_t i) {
  return SubKey{ClientId(static_cast<std::uint32_t>(i + 1)), 1};
}

/// Stores `<prefix>_<unit>` (wall per call) and `<prefix>_instr` from the
/// span; zero calls (the layer is not used by this workload) store 0.
void per_call(const Span& span, const std::string& prefix, const char* unit,
              double unit_per_s, Values& out) {
  const double calls = static_cast<double>(span.calls);
  out[prefix + "_" + unit] = calls == 0 ? 0 : span.wall_s() * unit_per_s / calls;
  out[prefix + "_instr"] = calls == 0 ? 0 : span.instructions / calls;
}

}  // namespace

BrokerGauges broker_gauges(scenario::Scenario& s) {
  BrokerGauges g;
  broker::Overlay& o = s.overlay();
  for (std::size_t i = 0; i < o.broker_count(); ++i) {
    const broker::Broker& b = o.broker(i);
    g.forward_entries += static_cast<double>(b.routing_entry_count());
    g.forward_tags += static_cast<double>(b.routing_tag_count());
    g.match_entries += static_cast<double>(b.match_index_entries());
    g.cover_entries += static_cast<double>(b.cover_index_entries());
    g.virtuals += static_cast<double>(b.virtual_count());
    g.replayed += static_cast<double>(b.replayed_notifications());
    g.replay_truncated += static_cast<double>(b.replay_truncated());
    g.reexposed += static_cast<double>(b.reexposed_filters());
    g.pins += static_cast<double>(b.reexpose_pin_count());
    g.pending_moveouts += static_cast<double>(b.pending_moveout_count());
    g.ld_transits += static_cast<double>(b.ld_transit_count());
  }
  return g;
}

void run_probes(Tracer& tracer, const Workload& w, const scenario::Scenario& s,
                Values& out) {
  const std::vector<filter::Filter> filters = probe_filters(w, s);
  const std::vector<filter::Notification>& log = s.publications();
  // Results feed a checksum so no replay can be optimized away.
  std::uint64_t sink = 0;

  // MatchIndex::collect over the publication log.
  routing::MatchIndex index;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    index.upsert_local(key_of(i), filters[i]);
  }
  routing::MatchHits hits;
  tracer.span(
      "routing.collect",
      [&] {
        for (const filter::Notification& n : log) {
          index.collect(n, hits);
          sink += hits.locals.size();
        }
      },
      log.size());

  // compute_forward_set over every subscription, covering + CoverIndex.
  std::vector<routing::ForwardInput> inputs;
  for (std::size_t i = 0; i < filters.size(); ++i) {
    inputs.push_back(routing::ForwardInput{filters[i], {key_of(i)}});
  }
  tracer.span(
      "routing.forward_set",
      [&] {
        for (std::size_t k = 0; k < kForwardSetCalls; ++k) {
          sink += routing::compute_forward_set(routing::Strategy::covering,
                                               inputs,
                                               routing::AdminIndex::index)
                      .size();
        }
      },
      kForwardSetCalls);

  // LdSpec::concrete_filter at every location and every hop's radius.
  const location::LocationGraph* g = s.locations();
  const std::size_t cf_calls =
      g == nullptr ? 0 : w.ld_specs.size() * g->size() * (kMaxHop + 1);
  tracer.span(
      "location.concrete_filter",
      [&] {
        for (const location::LdSpec& spec : w.ld_specs) {
          for (std::uint32_t loc = 0; loc < g->size(); ++loc) {
            for (std::size_t hop = 0; hop <= kMaxHop; ++hop) {
              sink += spec.concrete_filter(*g, LocationId(loc), hop).size();
            }
          }
        }
      },
      cf_calls);

  // Filter::matches over (filter, publication) pairs, the report's
  // completeness scan, strided down to a bounded number of pairs.
  const std::size_t stride =
      std::max<std::size_t>(1, filters.size() * log.size() / kMaxMatchPairs + 1);
  std::size_t pairs = 0;
  for (std::size_t j = 0; j < log.size(); j += stride) pairs += filters.size();
  tracer.span(
      "filter.matches",
      [&] {
        for (std::size_t j = 0; j < log.size(); j += stride) {
          for (const filter::Filter& f : filters) sink += f.matches(log[j]);
        }
      },
      pairs);

  if (sink == 0 && !log.empty() && !filters.empty()) {
    throw std::runtime_error("perfbench: the replays matched nothing");
  }
  per_call(tracer.get("routing.collect"), "routing.collect", "ns", 1e9, out);
  per_call(tracer.get("routing.forward_set"), "routing.forward_set", "us", 1e6,
           out);
  per_call(tracer.get("location.concrete_filter"), "location.concrete_filter",
           "us", 1e6, out);
  per_call(tracer.get("filter.matches"), "filter.matches", "ns", 1e9, out);
}

}  // namespace perfbench
