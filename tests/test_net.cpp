// Tests of the network model: topology invariants, candidate-edge lookup,
// fixed links, instance validation, serialization round-trips, and the
// parameterized builders.

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/builders.hpp"
#include "net/instance.hpp"
#include "run/random.hpp"
#include "util/rng.hpp"

namespace rdcn {
namespace {

TEST(Topology, BasicConstruction) {
  Topology g;
  EXPECT_EQ(g.add_sources(2), 0);
  EXPECT_EQ(g.add_destinations(2), 0);
  const NodeIndex t0 = g.add_transmitter(0, 1);
  const NodeIndex t1 = g.add_transmitter(1);
  const NodeIndex r0 = g.add_receiver(0);
  const NodeIndex r1 = g.add_receiver(1, 2);
  const EdgeIndex e = g.add_edge(t0, r1, 3);

  EXPECT_EQ(g.num_transmitters(), 2);
  EXPECT_EQ(g.num_receivers(), 2);
  EXPECT_EQ(g.source_of(t1), 1);
  EXPECT_EQ(g.destination_of(r0), 0);
  EXPECT_EQ(g.transmitter_attach_delay(t0), 1);
  EXPECT_EQ(g.receiver_attach_delay(r1), 2);
  EXPECT_EQ(g.total_edge_delay(e), 1 + 3 + 2);
  EXPECT_EQ(g.validate(), "");
}

/// E_p as a vector, for comparisons.
std::vector<EdgeIndex> pair_edge_list(const Topology& g, NodeIndex s, NodeIndex d) {
  const std::span<const EdgeIndex> view = g.pair_edges(s, d);
  return {view.begin(), view.end()};
}

TEST(Topology, CandidateEdgesFilterBySourceAndDestination) {
  const Instance instance = figure1_instance();
  const Figure1Ids ids = figure1_ids();
  const auto& g = instance.topology();
  EXPECT_EQ(pair_edge_list(g, ids.s1, ids.d1), (std::vector<EdgeIndex>{ids.t1r1}));
  EXPECT_EQ(pair_edge_list(g, ids.s1, ids.d2), (std::vector<EdgeIndex>{ids.t1r2}));
  EXPECT_EQ(pair_edge_list(g, ids.s2, ids.d2), (std::vector<EdgeIndex>{ids.t3r3}));
  EXPECT_EQ(pair_edge_list(g, ids.s2, ids.d3), (std::vector<EdgeIndex>{ids.t3r4}));
  EXPECT_TRUE(g.pair_edges(ids.s1, ids.d3).empty());
}

TEST(Topology, FixedLinkKeepsMinimumDelay) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  g.add_fixed_link(0, 0, 9);
  g.add_fixed_link(0, 0, 4);
  g.add_fixed_link(0, 0, 7);
  EXPECT_EQ(g.fixed_link_delay(0, 0), std::optional<Delay>(4));
  EXPECT_EQ(g.fixed_links().size(), 1u);
}

/// Every builder's shape, hybrid variants included, plus the fuzz
/// generator's random topologies.
std::vector<std::pair<std::string, Topology>> topology_zoo() {
  std::vector<std::pair<std::string, Topology>> zoo;
  zoo.emplace_back("crossbar5", build_crossbar(5));
  zoo.emplace_back("figure1", figure1_instance().topology());
  zoo.emplace_back("figure2", figure2_topology());
  Rng rng(17);
  TwoTierConfig two_tier;
  two_tier.racks = 7;
  two_tier.density = 0.5;
  two_tier.max_edge_delay = 3;
  zoo.emplace_back("two_tier", build_two_tier(two_tier, rng));
  two_tier.fixed_link_delay = 6;
  zoo.emplace_back("two_tier_hybrid", build_two_tier(two_tier, rng));
  OversubscribedConfig oversubscribed;
  zoo.emplace_back("oversubscribed", build_oversubscribed(oversubscribed, rng));
  ExpanderConfig expander;
  expander.racks = 9;
  zoo.emplace_back("expander", build_expander(expander, rng));
  RotorConfig rotor;
  rotor.racks = 6;
  zoo.emplace_back("rotor", build_rotor(rotor));
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const ScenarioSpec spec = random_scenario_spec(seed);
    zoo.emplace_back("random" + std::to_string(seed),
                     make_topology(spec.topology, spec.base_seed));
  }
  return zoo;
}

/// The scans the pair cache replaces: E_p in the order dispatch visits it
/// (per-source transmitter order, then per-transmitter edge order), and
/// the fixed-link list.
std::vector<EdgeIndex> scanned_pair_edges(const Topology& g, NodeIndex s, NodeIndex d) {
  std::vector<EdgeIndex> edges;
  for (NodeIndex t : g.transmitters_of_source(s)) {
    for (EdgeIndex e : g.edges_of_transmitter(t)) {
      if (g.destination_of(g.edge(e).receiver) == d) edges.push_back(e);
    }
  }
  return edges;
}
std::optional<Delay> scanned_fixed_delay(const Topology& g, NodeIndex s, NodeIndex d) {
  for (const FixedLink& link : g.fixed_links()) {
    if (link.source == s && link.destination == d) return link.delay;
  }
  return std::nullopt;
}

TEST(Topology, PairCacheMatchesScansOverTheZoo) {
  std::size_t fixed_pairs = 0;
  for (const auto& [name, g] : topology_zoo()) {
    // One index past each end: out-of-range pairs answer as they always
    // have (no fixed link; a bad source throws, a bad destination is empty).
    for (NodeIndex s = -1; s <= g.num_sources(); ++s) {
      for (NodeIndex d = -1; d <= g.num_destinations(); ++d) {
        const std::string where =
            name + " (" + std::to_string(s) + ", " + std::to_string(d) + ")";
        const std::optional<Delay> fixed = g.fixed_link_delay(s, d);
        EXPECT_EQ(fixed, scanned_fixed_delay(g, s, d)) << where;
        if (fixed) ++fixed_pairs;
        if (s < 0 || s >= g.num_sources()) {
          EXPECT_THROW(g.pair_edges(s, d), std::out_of_range) << where;
          EXPECT_THROW(g.routable(s, d), std::out_of_range) << where;
          continue;
        }
        const std::vector<EdgeIndex> edges = pair_edge_list(g, s, d);
        const std::vector<EdgeIndex> scanned =
            d < 0 || d >= g.num_destinations() ? std::vector<EdgeIndex>{}
                                               : scanned_pair_edges(g, s, d);
        EXPECT_EQ(edges, scanned) << where;
        EXPECT_EQ(g.routable(s, d), fixed.has_value() || !edges.empty()) << where;
      }
    }
  }
  EXPECT_GT(fixed_pairs, 0u) << "the zoo must include hybrid topologies";
}

TEST(Topology, PairCacheSeesMutationsMadeAfterAQuery) {
  Topology g;
  g.add_sources(2);
  g.add_destinations(2);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(1);
  // Each query below builds (or reads) the cache; each mutation after it
  // must show in the next query.
  EXPECT_TRUE(g.pair_edges(0, 1).empty());
  EXPECT_FALSE(g.fixed_link_delay(0, 1));
  EXPECT_FALSE(g.routable(0, 1));
  const EdgeIndex e = g.add_edge(t, r, 2);
  EXPECT_EQ(pair_edge_list(g, 0, 1), std::vector<EdgeIndex>{e});
  EXPECT_TRUE(g.routable(0, 1));
  EXPECT_FALSE(g.routable(1, 0));
  g.add_fixed_link(1, 0, 9);
  EXPECT_EQ(g.fixed_link_delay(1, 0), std::optional<Delay>(9));
  EXPECT_TRUE(g.routable(1, 0));
  // A duplicate keeps the smaller delay, whichever order they come in.
  g.add_fixed_link(1, 0, 4);
  EXPECT_EQ(g.fixed_link_delay(1, 0), std::optional<Delay>(4));
  g.add_fixed_link(1, 0, 7);
  EXPECT_EQ(g.fixed_link_delay(1, 0), std::optional<Delay>(4));
  EXPECT_EQ(g.fixed_links().size(), 1u);
  // Growing a node layer re-indexes the pairs; old answers must hold.
  g.add_destinations(1);
  g.add_sources(1);
  EXPECT_EQ(g.fixed_link_delay(1, 0), std::optional<Delay>(4));
  EXPECT_EQ(pair_edge_list(g, 0, 1), std::vector<EdgeIndex>{e});
  EXPECT_FALSE(g.fixed_link_delay(2, 2));
  EXPECT_TRUE(g.pair_edges(2, 2).empty());
  g.add_fixed_link(2, 2, 3);
  EXPECT_EQ(g.fixed_link_delay(2, 2), std::optional<Delay>(3));
}

TEST(Topology, RejectsInvalidArguments) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  EXPECT_THROW(g.add_transmitter(5), std::out_of_range);
  EXPECT_THROW(g.add_receiver(-1), std::out_of_range);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  EXPECT_THROW(g.add_edge(t, r, 0), std::invalid_argument);
  EXPECT_THROW(g.add_fixed_link(0, 0, 0), std::invalid_argument);
  EXPECT_THROW(g.add_transmitter(0, -1), std::invalid_argument);
}

TEST(Instance, ValidateCatchesBrokenInputs) {
  Topology g;
  g.add_sources(1);
  g.add_destinations(1);
  const NodeIndex t = g.add_transmitter(0);
  const NodeIndex r = g.add_receiver(0);
  g.add_edge(t, r, 1);

  {
    Instance instance(g, {});
    instance.add_packet(1, 1.0, 0, 0);
    EXPECT_EQ(instance.validate(), "");
  }
  {
    Instance instance(g, {});
    instance.add_packet(0, 1.0, 0, 0);  // arrival < 1
    EXPECT_NE(instance.validate(), "");
  }
  {
    Instance instance(g, {});
    instance.add_packet(1, 0.0, 0, 0);  // weight 0
    EXPECT_NE(instance.validate(), "");
  }
  {
    Instance instance(g, {});
    instance.add_packet(2, 1.0, 0, 0);
    EXPECT_THROW(instance.add_packet(1, 1.0, 0, 0), std::invalid_argument);  // out of order
  }
}

TEST(Instance, SerializationRoundTrips) {
  const Instance original = figure1_instance();
  const std::string text = original.to_string();
  const Instance loaded = Instance::from_string(text);
  EXPECT_EQ(loaded.validate(), "");
  EXPECT_EQ(loaded.num_packets(), original.num_packets());
  EXPECT_EQ(loaded.topology().num_edges(), original.topology().num_edges());
  EXPECT_EQ(loaded.to_string(), text);  // canonical form is a fixpoint
}

TEST(Instance, SerializationRejectsGarbage) {
  std::istringstream bad("not-an-instance v1\n");
  EXPECT_THROW(Instance::load(bad), std::runtime_error);
}

/// One-port instance text with the given delays: a transmitter and a
/// receiver with their attach delays, one edge, one fixed link, one packet.
std::string delay_instance_text(Delay tx_attach, Delay rx_attach, Delay edge, Delay link) {
  std::ostringstream text;
  text << "rdcn-instance v1\nsources 1\ndestinations 1\n"
       << "transmitters 1\n0 " << tx_attach << "\nreceivers 1\n0 " << rx_attach << "\n"
       << "edges 1\n0 0 " << edge << "\nfixed_links 1\n0 0 " << link << "\n"
       << "packets 1\n1 1 0 0\n";
  return text.str();
}

/// Instance text that ends right after section `keyword`'s count line,
/// which reads `count`; every earlier count is 1 (racks) or 0.
std::string count_prefix_text(const std::string& keyword, std::int64_t count) {
  std::string text = "rdcn-instance v1\n";
  for (const char* section :
       {"sources", "destinations", "transmitters", "receivers", "edges", "fixed_links",
        "packets"}) {
    if (keyword == section) return text + keyword + " " + std::to_string(count) + "\n";
    const bool rack = std::string(section) == "sources" || std::string(section) == "destinations";
    text += std::string(section) + (rack ? " 1\n" : " 0\n");
  }
  ADD_FAILURE() << "unknown section " << keyword;
  return text;
}

/// The message Instance::from_string(text) throws ("" if it loads).
std::string load_error(const std::string& text) {
  try {
    Instance::from_string(text);
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(Instance, LoadBoundsEveryCountBeforeUsingIt) {
  const std::pair<const char*, std::int64_t> limits[] = {
      {"sources", Instance::kMaxRacks},     {"destinations", Instance::kMaxRacks},
      {"transmitters", Instance::kMaxPorts}, {"receivers", Instance::kMaxPorts},
      {"edges", Instance::kMaxEdges},        {"fixed_links", Instance::kMaxEdges},
      {"packets", Instance::kMaxPackets}};
  for (const auto& [keyword, limit] : limits) {
    // At the limit the count is taken, and the text then runs out: the
    // error is about what follows, not the count.
    const std::string at = load_error(count_prefix_text(keyword, limit));
    EXPECT_NE(at, "") << keyword;
    EXPECT_EQ(at.find("count"), std::string::npos) << keyword << ": " << at;
    for (const std::int64_t bad : {limit + 1, std::int64_t{-1}}) {
      const std::string past = load_error(count_prefix_text(keyword, bad));
      EXPECT_NE(past.find(std::string("'") + keyword + "' count " + std::to_string(bad)),
                std::string::npos)
          << keyword << ": " << past;
    }
  }
  // 2^32 + 5 would narrow to 5 racks.
  const std::string wrapped = load_error(count_prefix_text("sources", (std::int64_t{1} << 32) + 5));
  EXPECT_NE(wrapped.find("'sources' count 4294967301"), std::string::npos) << wrapped;
  // A full instance at the rack limit loads.
  std::string racks = "rdcn-instance v1\nsources " + std::to_string(Instance::kMaxRacks) +
                      "\ndestinations " + std::to_string(Instance::kMaxRacks) +
                      "\ntransmitters 0\nreceivers 0\nedges 0\nfixed_links 0\npackets 0\n";
  EXPECT_EQ(load_error(racks), "");
}

TEST(Instance, LoadBoundsEveryDelay) {
  const Delay max = Instance::kMaxDelay;
  const Instance at = Instance::from_string(delay_instance_text(max, max, max, max));
  EXPECT_EQ(at.validate(), "");
  EXPECT_EQ(at.topology().edge(0).delay, max);
  EXPECT_EQ(at.topology().transmitter_attach_delay(0), max);
  EXPECT_EQ(at.topology().receiver_attach_delay(0), max);
  EXPECT_EQ(at.topology().fixed_link_delay(0, 0).value_or(0), max);
  const std::string past[] = {
      load_error(delay_instance_text(max + 1, 0, 1, 1)),
      load_error(delay_instance_text(0, max + 1, 1, 1)),
      load_error(delay_instance_text(0, 0, max + 1, 1)),
      load_error(delay_instance_text(0, 0, 1, max + 1)),
      load_error(delay_instance_text(0, 0, 1000000000, 1)),
  };
  const std::string suffix = ": delay " + std::to_string(max + 1) + " above the limit " +
                             std::to_string(max);
  EXPECT_EQ(past[0], "instance transmitter record 0" + suffix);
  EXPECT_EQ(past[1], "instance receiver record 0" + suffix);
  EXPECT_EQ(past[2], "instance edge record 0" + suffix);
  EXPECT_EQ(past[3], "instance fixed link record 0" + suffix);
  EXPECT_NE(past[4].find("edge record 0: delay 1000000000"), std::string::npos) << past[4];
}

TEST(Instance, LoadBoundsEveryArrival) {
  const auto text = [](Time arrival) {
    return "rdcn-instance v1\nsources 1\ndestinations 1\ntransmitters 1\n0 0\n"
           "receivers 1\n0 0\nedges 1\n0 0 1\nfixed_links 0\npackets 2\n1 1 0 0\n" +
           std::to_string(arrival) + " 1 0 0\n";
  };
  const Instance at = Instance::from_string(text(Instance::kMaxArrival));
  EXPECT_EQ(at.validate(), "");
  EXPECT_EQ(at.packets().back().arrival, Instance::kMaxArrival);
  EXPECT_EQ(load_error(text(Instance::kMaxArrival + 1)),
            "instance packet record 1: arrival " + std::to_string(Instance::kMaxArrival + 1) +
                " above the limit " + std::to_string(Instance::kMaxArrival));
  // 9e18 would overflow the step guard derived from horizon_bound().
  EXPECT_NE(load_error(text(9000000000000000000)).find("arrival 9000000000000000000"),
            std::string::npos);
}

TEST(Instance, IdealCostOnFigure1) {
  // p1..p4: best path latency 1 each; p5: min(reconfig 1, fixed 4) = 1.
  EXPECT_DOUBLE_EQ(figure1_instance().ideal_cost(), 5.0);
}

TEST(Instance, IntegerWeightDetection) {
  Instance instance = figure1_instance();
  EXPECT_TRUE(instance.has_integer_weights());
  instance.add_packet(5, 1.5, 0, 0);
  EXPECT_FALSE(instance.has_integer_weights());
}

TEST(Builders, TwoTierKeepsPairsRoutable) {
  Rng rng(17);
  TwoTierConfig config;
  config.racks = 5;
  config.lasers_per_rack = 2;
  config.photodetectors_per_rack = 2;
  config.density = 0.3;  // sparse: forces the routability fallback
  const Topology g = build_two_tier(config, rng);
  EXPECT_EQ(g.validate(), "");
  for (NodeIndex s = 0; s < 5; ++s) {
    for (NodeIndex d = 0; d < 5; ++d) {
      if (s == d) continue;
      EXPECT_TRUE(g.routable(s, d)) << s << "->" << d;
    }
  }
}

TEST(Builders, TwoTierHybridAddsAllFixedLinks) {
  Rng rng(18);
  TwoTierConfig config;
  config.racks = 4;
  config.density = 0.0;  // no reconfigurable edges at all
  config.fixed_link_delay = 8;
  const Topology g = build_two_tier(config, rng);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_EQ(g.fixed_links().size(), 4u * 3u);
  EXPECT_TRUE(g.routable(0, 3));
}

TEST(Builders, TwoTierDelaysInRange) {
  Rng rng(19);
  TwoTierConfig config;
  config.racks = 4;
  config.max_edge_delay = 5;
  const Topology g = build_two_tier(config, rng);
  for (const auto& edge : g.edges()) {
    EXPECT_GE(edge.delay, 1);
    EXPECT_LE(edge.delay, 5);
  }
}

TEST(Builders, CrossbarIsCompleteBipartite) {
  const Topology g = build_crossbar(4);
  EXPECT_EQ(g.num_transmitters(), 4);
  EXPECT_EQ(g.num_receivers(), 4);
  EXPECT_EQ(g.num_edges(), 16);
  EXPECT_EQ(g.validate(), "");
  for (const auto& edge : g.edges()) EXPECT_EQ(edge.delay, 1);
  // Port i's transmitter reaches every output.
  EXPECT_EQ(g.pair_edges(0, 3).size(), 1u);
}

TEST(Builders, Figure2TopologyShape) {
  const Topology g = figure2_topology();
  EXPECT_EQ(g.num_transmitters(), 2);
  EXPECT_EQ(g.num_receivers(), 3);
  EXPECT_EQ(g.num_edges(), 4);
  EXPECT_TRUE(g.fixed_links().empty());
}

TEST(Instance, HorizonBoundDominatesArrivalsAndWork) {
  const Instance instance = figure1_instance();
  EXPECT_GE(instance.horizon_bound(), 2 + 5 * 4);  // arrivals + n * max delay
}

// --- topology zoo -----------------------------------------------------------

namespace zoo {

/// Canonical edge-list fingerprint: (transmitter, receiver, delay) triples
/// in construction order, plus the fixed links.
std::vector<std::tuple<NodeIndex, NodeIndex, Delay>> edge_list(const Topology& g) {
  std::vector<std::tuple<NodeIndex, NodeIndex, Delay>> list;
  for (const ReconfigEdge& edge : g.edges()) {
    list.emplace_back(edge.transmitter, edge.receiver, edge.delay);
  }
  for (const FixedLink& link : g.fixed_links()) {
    list.emplace_back(-1 - link.source, -1 - link.destination, link.delay);
  }
  return list;
}

std::vector<std::size_t> rack_out_degrees(const Topology& g) {
  std::vector<std::size_t> degrees(static_cast<std::size_t>(g.num_sources()), 0);
  for (const ReconfigEdge& edge : g.edges()) {
    ++degrees[static_cast<std::size_t>(g.source_of(edge.transmitter))];
  }
  return degrees;
}

std::vector<std::size_t> rack_in_degrees(const Topology& g) {
  std::vector<std::size_t> degrees(static_cast<std::size_t>(g.num_destinations()), 0);
  for (const ReconfigEdge& edge : g.edges()) {
    ++degrees[static_cast<std::size_t>(g.destination_of(edge.receiver))];
  }
  return degrees;
}

}  // namespace zoo

TEST(Oversubscribed, PortAsymmetryAndDelayClasses) {
  OversubscribedConfig config;
  config.racks = 6;
  config.hot_racks = 2;
  config.hot_lasers = 4;
  config.hot_photodetectors = 2;
  config.cold_lasers = 1;
  config.cold_photodetectors = 1;
  config.density = 0.8;
  config.fast_delay = 1;
  config.slow_delay = 5;
  config.slow_fraction = 0.5;
  Rng rng(23);
  const Topology g = build_oversubscribed(config, rng);
  EXPECT_EQ(g.validate(), "");
  EXPECT_EQ(g.num_transmitters(), 2 * 4 + 4 * 1);
  EXPECT_EQ(g.num_receivers(), 2 * 2 + 4 * 1);
  // Every edge belongs to exactly one delay class.
  for (const ReconfigEdge& edge : g.edges()) {
    EXPECT_TRUE(edge.delay == 1 || edge.delay == 5) << edge.delay;
  }
}

TEST(Oversubscribed, FixedLayerScaledByOversubscription) {
  OversubscribedConfig config;
  config.racks = 4;
  config.fixed_base_delay = 3;
  config.oversubscription = 4.0;
  Rng rng(24);
  const Topology g = build_oversubscribed(config, rng);
  ASSERT_EQ(g.fixed_links().size(), 4u * 3u);
  for (const FixedLink& link : g.fixed_links()) EXPECT_EQ(link.delay, 12);
  // Hybrid layer present: every ordered rack pair is routable.
  for (NodeIndex s = 0; s < 4; ++s) {
    for (NodeIndex d = 0; d < 4; ++d) {
      if (s != d) {
        EXPECT_TRUE(g.routable(s, d)) << s << "->" << d;
      }
    }
  }
}

TEST(Oversubscribed, RoutablePatchWithoutFixedLayer) {
  OversubscribedConfig config;
  config.racks = 5;
  config.density = 0.05;  // sparse: forces the patch path
  config.fixed_base_delay = 0;
  Rng rng(25);
  const Topology g = build_oversubscribed(config, rng);
  EXPECT_TRUE(g.fixed_links().empty());
  for (NodeIndex s = 0; s < 5; ++s) {
    for (NodeIndex d = 0; d < 5; ++d) {
      if (s != d) {
        EXPECT_TRUE(g.routable(s, d)) << s << "->" << d;
      }
    }
  }
}

TEST(Oversubscribed, RejectsInvalidConfigs) {
  Rng rng(1);
  OversubscribedConfig config;
  config.racks = 1;
  EXPECT_THROW(build_oversubscribed(config, rng), std::invalid_argument);
  config = {};
  config.hot_racks = config.racks + 1;
  EXPECT_THROW(build_oversubscribed(config, rng), std::invalid_argument);
  config = {};
  config.slow_delay = 0;
  EXPECT_THROW(build_oversubscribed(config, rng), std::invalid_argument);
  config = {};
  config.oversubscription = 0.5;
  EXPECT_THROW(build_oversubscribed(config, rng), std::invalid_argument);
}

TEST(Expander, ExactRackRegularity) {
  ExpanderConfig config;
  config.racks = 9;
  config.degree = 3;
  config.lasers_per_rack = 2;
  config.photodetectors_per_rack = 2;
  config.fixed_link_delay = 0;
  Rng rng(31);
  const Topology g = build_expander(config, rng);
  EXPECT_EQ(g.validate(), "");
  EXPECT_EQ(g.num_edges(), 9 * 3);
  // d-regular at rack level: every rack sends and receives exactly d edges.
  for (const std::size_t degree : zoo::rack_out_degrees(g)) EXPECT_EQ(degree, 3u);
  for (const std::size_t degree : zoo::rack_in_degrees(g)) EXPECT_EQ(degree, 3u);
  // Derangements: no self-rack edge.
  for (const ReconfigEdge& edge : g.edges()) {
    EXPECT_NE(g.source_of(edge.transmitter), g.destination_of(edge.receiver));
  }
}

TEST(Expander, HybridFallbackGuaranteesRoutability) {
  ExpanderConfig config;
  config.racks = 8;
  config.degree = 2;
  config.fixed_link_delay = 8;
  Rng rng(32);
  const Topology g = build_expander(config, rng);
  for (NodeIndex s = 0; s < 8; ++s) {
    for (NodeIndex d = 0; d < 8; ++d) {
      if (s != d) {
        EXPECT_TRUE(g.routable(s, d)) << s << "->" << d;
      }
    }
  }
}

TEST(Expander, WithoutFixedLayerRoutabilityEqualsWiring) {
  // Pure expander (no hybrid fallback): a pair is routable exactly when a
  // permutation wired it, and every rack reaches between 1 and degree
  // distinct destination racks (permutations may collide on a target).
  ExpanderConfig config;
  config.racks = 5;
  config.degree = 4;
  config.fixed_link_delay = 0;
  Rng rng(33);
  const Topology g = build_expander(config, rng);
  for (NodeIndex s = 0; s < 5; ++s) {
    std::size_t reachable = 0;
    for (NodeIndex d = 0; d < 5; ++d) {
      if (s == d) continue;
      EXPECT_EQ(g.routable(s, d), !g.pair_edges(s, d).empty());
      if (g.routable(s, d)) ++reachable;
    }
    EXPECT_GE(reachable, 1u);
    EXPECT_LE(reachable, 4u);
  }
}

TEST(Expander, RejectsInvalidConfigs) {
  Rng rng(1);
  ExpanderConfig config;
  config.degree = 0;
  EXPECT_THROW(build_expander(config, rng), std::invalid_argument);
  config = {};
  config.racks = 4;
  config.degree = 4;  // > racks - 1
  EXPECT_THROW(build_expander(config, rng), std::invalid_argument);
  config = {};
  config.max_edge_delay = 0;
  EXPECT_THROW(build_expander(config, rng), std::invalid_argument);
}

TEST(Rotor, FullCoverageWiresEveryOrderedPairOnce) {
  RotorConfig config;
  config.racks = 6;
  config.ports_per_rack = 2;
  config.num_matchings = 0;  // racks - 1
  const Topology g = build_rotor(config);
  EXPECT_EQ(g.validate(), "");
  EXPECT_EQ(rotor_matchings(config), 5);
  EXPECT_EQ(g.num_edges(), 6 * 5);
  std::set<std::pair<NodeIndex, NodeIndex>> wired;
  for (const ReconfigEdge& edge : g.edges()) {
    const auto pair = std::make_pair(g.source_of(edge.transmitter),
                                     g.destination_of(edge.receiver));
    EXPECT_NE(pair.first, pair.second);
    EXPECT_TRUE(wired.insert(pair).second) << "duplicate rack pair";
  }
  EXPECT_EQ(wired.size(), 6u * 5u);
}

TEST(Rotor, SparseMatchingsCoverExactlyTheRoundRobinOffsets) {
  RotorConfig config;
  config.racks = 7;
  config.num_matchings = 3;
  const Topology g = build_rotor(config);
  EXPECT_EQ(g.num_edges(), 7 * 3);
  for (NodeIndex s = 0; s < 7; ++s) {
    for (NodeIndex d = 0; d < 7; ++d) {
      if (s == d) continue;
      const NodeIndex offset = (d - s + 7) % 7;
      EXPECT_EQ(g.routable(s, d), offset <= 3) << s << "->" << d;
    }
  }
}

TEST(Rotor, DeterministicWithoutRandomness) {
  RotorConfig config;
  config.racks = 5;
  config.ports_per_rack = 2;
  EXPECT_EQ(zoo::edge_list(build_rotor(config)), zoo::edge_list(build_rotor(config)));
}

TEST(Rotor, RejectsInvalidConfigs) {
  RotorConfig config;
  config.racks = 1;
  EXPECT_THROW(build_rotor(config), std::invalid_argument);
  config = {};
  config.racks = 4;
  config.num_matchings = 4;  // > racks - 1
  EXPECT_THROW(build_rotor(config), std::invalid_argument);
  config = {};
  config.ports_per_rack = 0;
  EXPECT_THROW(build_rotor(config), std::invalid_argument);
}

}  // namespace
}  // namespace rdcn
