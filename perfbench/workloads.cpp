#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "src/util/rng.hpp"

namespace perfbench {

using namespace rebeca;

namespace {

// A 40-broker tree: root, 3 inner, 9 inner, 27 leaves (brokers 13..39).
constexpr std::size_t kDepth = 3;
constexpr std::size_t kFanout = 3;
constexpr std::size_t kBrokers = 40;
constexpr std::size_t kFirstLeaf = 13;
constexpr std::size_t kLeaves = kBrokers - kFirstLeaf;

constexpr std::int64_t kPxDomain = 1000;  // px is drawn from [0, 1000)

const sim::Duration kWarmup = sim::seconds(1);
// The measured window runs as phases of this virtual length, which the
// benchmark times one by one.
const sim::Duration kSegment = sim::millis(100);

std::size_t scaled(std::size_t n, double factor) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(n) * factor)));
}

template <typename T>
void shuffle(std::vector<T>& v, util::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.index(i)]);
}

/// n values, one drawn uniformly from each of n equal strata of
/// [lo, hi), in shuffled order. Every seed covers the domain evenly, so
/// the aggregate work hardly moves with the seed while each individual
/// input does.
std::vector<std::int64_t> stratified(util::Rng& rng, std::size_t n,
                                     std::int64_t lo, std::int64_t hi) {
  std::vector<std::int64_t> out;
  out.reserve(n);
  const double width = static_cast<double>(hi - lo) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lo + static_cast<std::int64_t>(
                           (static_cast<double>(i) + rng.uniform01()) * width));
  }
  shuffle(out, rng);
  return out;
}

/// Maps template positions onto brokers through a random automorphism of
/// the tree: the children of every inner broker are reordered. A
/// workload is laid out once against template positions, and each seed
/// gets an isomorphic copy, so hop distances — and with them the routing
/// work — match across seeds while the concrete placement differs.
class TreeLayout {
 public:
  explicit TreeLayout(util::Rng& rng) : map_(kBrokers) {
    // Balanced trees number brokers breadth-first, so the children of
    // broker n are kFanout*n + 1 ... kFanout*n + kFanout.
    map_[0] = 0;
    for (std::size_t n = 0; kFanout * n + kFanout < kBrokers; ++n) {
      std::vector<std::size_t> order(kFanout);
      for (std::size_t k = 0; k < kFanout; ++k) order[k] = k;
      shuffle(order, rng);
      for (std::size_t k = 0; k < kFanout; ++k) {
        map_[kFanout * n + 1 + k] = kFanout * map_[n] + 1 + order[k];
      }
    }
  }

  /// The broker at template position `slot` (wrapping), and the leaf.
  [[nodiscard]] std::size_t broker(std::size_t slot) const {
    return map_[slot % kBrokers];
  }
  [[nodiscard]] std::size_t leaf(std::size_t slot) const {
    return map_[kFirstLeaf + slot % kLeaves];
  }

 private:
  std::vector<std::size_t> map_;  // template broker -> broker
};

std::string numbered(const char* prefix, std::size_t i) {
  std::string digits = std::to_string(i);
  return prefix + std::string(digits.size() < 3 ? 3 - digits.size() : 0, '0') +
         digits;
}

std::string symbol(std::size_t i) { return numbered("S", i); }

/// Open-loop publication source: Poisson arrivals at an aggregate rate,
/// each from a uniformly drawn producer with a freshly drawn body. The
/// schedule never waits for the system, and each notification is
/// stamped at its due time, so a stall shows up as latency.
class Feed {
 public:
  using Body = std::function<filter::Notification(util::Rng&)>;

  Feed(std::uint64_t seed, double rate_hz, std::vector<std::string> producers,
       Body body, bool stamp_location)
      : rng_(seed),
        mean_gap_ns_(1e9 / rate_hz),
        producer_names_(std::move(producers)),
        body_(std::move(body)),
        stamp_location_(stamp_location) {}

  /// Publishes from now until `duration` of virtual time has passed.
  void start(scenario::Scenario& s, sim::Duration duration) {
    s_ = &s;
    producers_.clear();
    for (const std::string& name : producer_names_) {
      producers_.push_back(&s.client(name));
    }
    stop_at_ = s.now() + duration;
    next_due_ = s.now();
    schedule_next();
  }

 private:
  void schedule_next() {
    next_due_ += static_cast<sim::Duration>(rng_.exponential(mean_gap_ns_)) + 1;
    if (next_due_ < stop_at_) s_->exec().post_at(next_due_, [this] { tick(); });
  }

  void tick() {
    client::Client& producer = *producers_[rng_.index(producers_.size())];
    filter::Notification n = body_(rng_);
    if (stamp_location_) {
      const location::LocationGraph& g = *s_->locations();
      n.set("location",
            g.name(LocationId(static_cast<std::uint32_t>(rng_.index(g.size())))));
    }
    producer.publish(std::move(n));
    schedule_next();
  }

  util::Rng rng_;
  double mean_gap_ns_;
  std::vector<std::string> producer_names_;
  Body body_;
  bool stamp_location_;
  std::vector<client::Client*> producers_;
  scenario::Scenario* s_ = nullptr;
  sim::TimePoint stop_at_ = 0;
  sim::TimePoint next_due_ = 0;
};

/// Clients declared detached, connected in a second warm-up phase.
using LateAttach = std::vector<std::pair<std::string, std::size_t>>;

/// Declares `total` of virtual time as consecutive phases of at most
/// kSegment: the first is `name` and runs `on_enter`, the others are
/// `name.1`, `name.2`, ... and do nothing on entry, so the split does not
/// change what happens in that time.
void segmented_phase(scenario::ScenarioBuilder& b, const std::string& name,
                     sim::Duration total,
                     std::function<void(scenario::Scenario&)> on_enter = nullptr) {
  sim::Duration done = 0;
  for (std::size_t k = 0; done < total; ++k) {
    const sim::Duration d = std::min(kSegment, total - done);
    b.phase(k == 0 ? name : name + "." + std::to_string(k), d,
            k == 0 ? std::move(on_enter) : nullptr);
    done += d;
  }
}

/// The skeleton every workload shares: the tree, stochastic link delays,
/// covering routing (the default), and the warmup/traffic/drain phases
/// with the feed bound to traffic. With `late` clients, warm-up has a
/// second phase that connects them once the first wave has settled.
void declare_common(Workload& w, std::uint64_t seed, const Size& size,
                    std::shared_ptr<Feed> feed, sim::Duration traffic,
                    sim::Duration drain, LateAttach late = {}) {
  scenario::ScenarioBuilder& b = w.builder;
  b.seed(seed);
  b.topology(scenario::TopologySpec::balanced_tree(kDepth, kFanout));
  // Exponential link delays blur the per-hop-count modes of the latency
  // distribution, so its quantiles move smoothly with the traffic mix.
  b.broker_link_delay(
      sim::DelayModel::exponential(sim::millis(3), sim::millis(2)));
  b.client_link_delay(
      sim::DelayModel::uniform(sim::micros(500), sim::micros(1500)));
  b.shards(size.shards);
  b.phase("warmup", kWarmup);
  if (!late.empty()) {
    b.phase("warmup_late", kWarmup, [late](scenario::Scenario& s) {
      for (const auto& [name, broker] : late) s.connect(name, broker);
    });
  }
  w.warmup_phases = late.empty() ? 1 : 2;
  segmented_phase(b, "traffic", traffic, [feed, traffic](scenario::Scenario& s) {
    feed->start(s, traffic);
  });
  segmented_phase(b, "drain", drain);
}

/// One producer per broker (fewer when scaled down).
std::vector<std::string> declare_producers(scenario::ScenarioBuilder& b,
                                           const TreeLayout& layout,
                                           double population) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < scaled(kBrokers, population); ++i) {
    names.push_back(numbered("prod", i));
    b.client(names.back()).at_broker(layout.broker(i));
  }
  return names;
}

filter::Notification stock_tick(util::Rng& rng, std::size_t symbols) {
  return filter::Notification()
      .set("sym", symbol(rng.index(symbols)))
      .set("px", rng.uniform_i64(0, kPxDomain - 1));
}

/// Static subscribers with selective eq+range filters at the leaves: per
/// symbol, the range starts are stratified over the px domain. With
/// `late`, the subscribers are declared detached and their leaves are
/// appended to it instead.
void declare_selective_subscribers(Workload& w, util::Rng& rng,
                                   const TreeLayout& layout, std::size_t n,
                                   std::size_t symbols, std::int64_t width,
                                   const char* prefix,
                                   LateAttach* late = nullptr) {
  std::vector<std::vector<std::int64_t>> starts(symbols);
  for (std::size_t s = 0; s < symbols; ++s) {
    starts[s] = stratified(rng, (n + symbols - 1 - s) / symbols, 0,
                           kPxDomain - width);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t sym = i % symbols;
    const std::int64_t lo = starts[sym][i / symbols];
    filter::Filter f = filter::Filter()
                           .where("sym", filter::Constraint::eq(symbol(sym)))
                           .where("px", filter::Constraint::range(lo, lo + width));
    const std::string name = numbered(prefix, i);
    scenario::ClientSpec& c = w.builder.client(name).subscribes(f);
    if (late != nullptr) {
      late->emplace_back(name, layout.leaf(i));
    } else {
      c.at_broker(layout.leaf(i));
    }
    w.builder.expect_exactly_once(name).expect_fifo(name);
    w.filters.push_back(std::move(f));
  }
}

// ---------------------------------------------------------------------------
// publish_fanout — steady-state content routing (paper Sec. 2).
// ---------------------------------------------------------------------------

Workload publish_fanout(std::uint64_t seed, const Size& size) {
  constexpr std::size_t kSubscribers = 160;
  constexpr std::size_t kSymbols = 16;
  constexpr std::int64_t kWidth = 150;
  constexpr double kRateHz = 40000;
  const sim::Duration traffic = sim::seconds(2.0 * size.traffic);

  Workload w;
  util::Rng rng(seed ^ 0x9f5eedULL);
  const TreeLayout layout(rng);
  declare_selective_subscribers(w, rng, layout,
                                scaled(kSubscribers, size.population), kSymbols,
                                kWidth, "sub");
  auto producers = declare_producers(w.builder, layout, size.population);
  auto feed = std::make_shared<Feed>(
      rng.next(), kRateHz, std::move(producers),
      [](util::Rng& r) { return stock_tick(r, kSymbols); }, false);
  declare_common(w, seed, size, feed, traffic, sim::millis(500));
  return w;
}

// ---------------------------------------------------------------------------
// roam_handoff — physical mobility under covering routing (paper Sec. 4).
// ---------------------------------------------------------------------------

Workload roam_handoff(std::uint64_t seed, const Size& size) {
  // Sized so that the window's working set stays within a core's 1 MiB
  // L2: at twice the clients, other tenants' cache traffic slowed the
  // window by a fifth (see README.md).
  constexpr std::size_t kBystanders = 48;
  constexpr std::size_t kRoamers = 12;
  constexpr std::size_t kSymbols = 8;
  constexpr std::int64_t kWidth = 200;
  constexpr double kRateHz = 6000;
  const sim::Duration dwell = sim::millis(250);
  const sim::Duration gap = sim::millis(100);
  const sim::Duration traffic = sim::seconds(4.0 * size.traffic);

  Workload w;
  util::Rng rng(seed ^ 0x40a3ULL);
  const TreeLayout layout(rng);
  // The roamers' covering subscriptions settle first and the bystanders
  // attach in the second warm-up phase: with both waves racing, which
  // filters a broker forwards (and so the warm-up work) would depend on
  // message order.
  LateAttach late;
  declare_selective_subscribers(w, rng, layout,
                                scaled(kBystanders, size.population), kSymbols,
                                kWidth, "bys", &late);

  // Roamers subscribe to a whole symbol, covering that symbol's
  // bystanders, and hop between brokers until shortly before the traffic
  // phase ends, so every relocation completes inside the window. Their
  // random-waypoint itineraries are drawn once for the workload over
  // template positions and mapped through the seed's layout: relocation
  // distances, the dominant cost, are then the same for every seed.
  const std::size_t roamers = scaled(kRoamers, size.population);
  const auto hops = static_cast<std::uint64_t>(
      std::max<sim::Duration>(1, traffic / (dwell + gap) - 1));
  util::Rng itinerary_rng(0x1717e7a7ULL);
  for (std::size_t i = 0; i < roamers; ++i) {
    filter::Filter f =
        filter::Filter().where("sym", filter::Constraint::eq(symbol(i % kSymbols)));
    std::vector<std::size_t> route;
    std::size_t at = kFirstLeaf + i % kLeaves;  // template position
    for (std::uint64_t h = 0; h < hops; ++h) {
      std::size_t next = at;
      while (next == at) next = itinerary_rng.index(kBrokers);
      at = next;
      route.push_back(layout.broker(at));
    }
    const std::string name = numbered("roam", i);
    w.builder.client(name)
        .at_broker(layout.leaf(i))
        .subscribes(f)
        .roams(scenario::RoamSpec()
                   .route(std::move(route))
                   .dwelling(dwell)
                   .dark_for(gap)
                   .hops(hops)
                   .from_phase("traffic"));
    w.builder.expect_exactly_once(name).expect_fifo(name);
    w.filters.push_back(std::move(f));
  }

  auto producers = declare_producers(w.builder, layout, size.population);
  auto feed = std::make_shared<Feed>(
      rng.next(), kRateHz, std::move(producers),
      [](util::Rng& r) { return stock_tick(r, kSymbols); }, false);
  declare_common(w, seed, size, feed, traffic, sim::seconds(1),
                 std::move(late));
  return w;
}

// ---------------------------------------------------------------------------
// location_walk — location-dependent subscriptions (paper Sec. 5).
// ---------------------------------------------------------------------------

Workload location_walk(std::uint64_t seed, const Size& size) {
  constexpr std::size_t kGridSide = 12;
  // 24 walkers keep the LD transits' location sets within a core's 1 MiB
  // L2; at 32 the in_set scans spilled to the shared L3, and other
  // tenants' cache traffic slowed the window by 1.4x (3.4x at 48).
  constexpr std::size_t kWalkers = 24;
  // Enough moves for the window (traffic + drain: 85 expected at a 100 ms
  // mean residence) that no walker runs out.
  constexpr std::size_t kRouteMoves = 180;
  constexpr double kRateHz = 12000;
  const sim::Duration residence = sim::millis(100);
  // 8 s rather than 4 s of traffic: with only 24 walkers, a longer window
  // halves how far msgs_per_delivery moves from seed to seed.
  const sim::Duration traffic = sim::seconds(8.0 * size.traffic);

  Workload w;
  util::Rng rng(seed ^ 0x10ca7ULL);
  const TreeLayout layout(rng);
  w.builder.locations(scenario::LocationSpec::grid(kGridSide, kGridSide));

  // Vicinity radius 0, the paper's myloc(y) = {y}. Adaptive profile
  // (Fig. 8): with a 40 ms per-hop processing estimate against a 100 ms
  // residence, the location sets widen by one step every other hop up the
  // tree. (At radius 1 the in_set scans walk larger std::sets, and the
  // window's wall time followed the host's other load the most of all
  // workloads.)
  location::LdSpec spec;
  spec.base = filter::Filter().where("service", filter::Constraint::eq("parking"));
  spec.vicinity_radius = 0;
  spec.profile =
      location::UncertaintyProfile::adaptive(residence, {sim::millis(40)});

  // Walkers start evenly spread over the grid and follow random-walk
  // routes drawn once for the workload, like the roamers' itineraries:
  // how much of each walker's vicinity falls off the grid's edge would
  // otherwise move the matching work from seed to seed. The seed draws
  // the residence times.
  const std::size_t walkers = scaled(kWalkers, size.population);
  util::Rng route_rng(0x3a1c3d0fULL);
  const auto cell_name = [](std::size_t x, std::size_t y) {
    return "g" + std::to_string(x) + "_" + std::to_string(y);
  };
  for (std::size_t i = 0; i < walkers; ++i) {
    const std::size_t cell = i * kGridSide * kGridSide / walkers;
    std::size_t x = cell % kGridSide;
    std::size_t y = cell / kGridSide;
    const std::string start = cell_name(x, y);
    std::vector<std::string> route;
    for (std::size_t m = 0; m < kRouteMoves; ++m) {
      std::vector<std::pair<std::size_t, std::size_t>> next;
      if (x > 0) next.emplace_back(x - 1, y);
      if (x + 1 < kGridSide) next.emplace_back(x + 1, y);
      if (y > 0) next.emplace_back(x, y - 1);
      if (y + 1 < kGridSide) next.emplace_back(x, y + 1);
      std::tie(x, y) = next[route_rng.index(next.size())];
      route.push_back(cell_name(x, y));
    }
    w.builder.client(numbered("walk", i))
        .at_broker(layout.leaf(i))
        .starts_at(start)
        .subscribes(spec)
        .walks(scenario::WalkSpec()
                   .route(std::move(route))
                   .moves(kRouteMoves)
                   .residing(residence)
                   .exponential_residence()
                   .from_phase("traffic"));
    w.ld_specs.push_back(spec);
    w.ld_starts.push_back(start);
  }

  auto producers = declare_producers(w.builder, layout, size.population);
  auto feed = std::make_shared<Feed>(
      rng.next(), kRateHz, std::move(producers),
      [](util::Rng&) {
        return filter::Notification().set("service", "parking");
      },
      true);
  declare_common(w, seed, size, feed, traffic, sim::millis(500));
  return w;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const Size& size) {
  if (name == "publish_fanout") return publish_fanout(seed, size);
  if (name == "roam_handoff") return roam_handoff(seed, size);
  if (name == "location_walk") return location_walk(seed, size);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
