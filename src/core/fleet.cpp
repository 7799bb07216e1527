#include "core/fleet.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/rng.h"
#include "dsp/math_util.h"
#include "fm/constants.h"
#include "rx/analytic_fsk.h"

namespace fmbs::core {

namespace {

/// Seed stream for per-cluster sub-scene root seeds (disjoint from the
/// per-entity streams scenario.cpp derives from the same scenario seed).
constexpr std::uint64_t kFleetSubsceneStream = 0x6000;

/// Receiver warm-up baked into every sub-scene: the parent run's settle has
/// long elapsed when a mid-run cluster starts, but the freshly instantiated
/// sub-scene receivers still need their own filter/AGC/pilot lead-in.
constexpr double kSubsceneSettleSeconds = 0.08;
/// Demod look-past slack after a cluster's last guard edge (covers the
/// receiver pipeline group delay, like rx::kBurstTailSlackSeconds).
constexpr double kSubsceneTailSeconds = 0.06;

/// Power advantage (at the receiver) at or above which a link captures over
/// an interfering burst: the interferer folds into the SINR instead of
/// forcing a PHY render. 18 dB keeps the folded term a <2% noise-power
/// perturbation.
constexpr double kCaptureMarginDb = 18.0;
/// Width of the ambiguous band below the capture margin. A payload
/// collision whose power gap falls inside (margin - band, margin) could go
/// either way -> PHY; at or below margin - band the loss is certain ->
/// analytic.
constexpr double kCaptureAmbiguityBandDb = 6.0;

/// One transmitted burst of the plan, with everything classification needs.
struct BurstInfo {
  std::size_t tag = 0;
  double start = 0.0;   ///< resolved payload start (settle included)
  double burst = 0.0;   ///< payload seconds
  std::size_t seg = 0;  ///< timeline segment of the burst midpoint
  units::Hertz ch[2] = {units::Hertz{0.0},
                        units::Hertz{0.0}};  ///< backscatter channel(s)
  int nch = 0;
  bool rds = false;
  double symbol_seconds = 0.0;
};

/// One temporal+spectral contact of a burst: `other`'s reflection couples
/// into the burst's channel and its on-air window touches the burst's
/// vulnerability window.
struct Contact {
  std::size_t other = 0;  ///< index into the burst table
  tag::Vulnerability verdict = tag::Vulnerability::kClear;
  /// Fraction of the victim's payload the interferer is on the air for —
  /// the duty weight of its power when folded into the victim's SINR.
  double overlap_weight = 0.0;
};

/// A (burst, receiver) pair routed to the PHY, with the index of its
/// placeholder in the flat link list.
struct PhyPair {
  std::size_t burst = 0;
  std::size_t receiver = 0;
  std::size_t link_index = 0;
};

struct UnionFind {
  std::vector<std::size_t> parent;
  explicit UnionFind(std::size_t n) : parent(n) {
    for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  }
  std::size_t find(std::size_t a) {
    while (parent[a] != a) {
      parent[a] = parent[parent[a]];
      a = parent[a];
    }
    return a;
  }
  /// The smaller root wins, so component representatives — and with them
  /// the cluster ordering and every derived sub-scene seed — are
  /// independent of union order.
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    parent[std::max(a, b)] = std::min(a, b);
  }
};

/// Enumerates, for every burst, the other bursts whose reflections couple
/// into one of its channels (within half a channel spacing — the same
/// coupling rule the carrier-sense oracle uses) and whose on-air window
/// touches its payload. Bursts are bucketed on a half-spacing frequency
/// grid and time-sorted per bucket, so the cost is O(bursts x contacts),
/// not O(bursts^2) — at metro scale almost all pairs share neither
/// frequency nor time.
std::vector<std::vector<Contact>> find_contacts(
    const std::vector<BurstInfo>& bursts) {
  const double half = fm::kChannelSpacingHz / 2.0;
  const double guard = kBurstGuardSeconds;

  struct Entry {
    double start = 0.0;
    double channel = 0.0;
    std::size_t burst = 0;
  };
  // std::map keys the buckets deterministically; entries sort by start so
  // the temporal scan below touches only candidates that can overlap.
  std::map<long long, std::vector<Entry>> bins;
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    for (int c = 0; c < bursts[i].nch; ++c) {
      const long long bin = std::llround(bursts[i].ch[c].raw() / half);
      bins[bin].push_back({bursts[i].start, bursts[i].ch[c].raw(), i});
    }
  }
  std::map<long long, double> bin_max_burst;
  for (auto& [bin, entries] : bins) {
    std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
      return a.start < b.start || (a.start == b.start && a.burst < b.burst);
    });
    double longest = 0.0;
    for (const Entry& e : entries) {
      longest = std::max(longest, bursts[e.burst].burst);
    }
    bin_max_burst[bin] = longest;
  }

  std::vector<std::vector<Contact>> contacts(bursts.size());
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const BurstInfo& b = bursts[i];
    const double pay_lo = b.start;
    const double pay_hi = b.start + b.burst;
    const tag::BurstWindow mine{units::Seconds{b.start},
                                units::Seconds{b.burst},
                                units::Seconds{guard}};
    std::vector<Contact>& out = contacts[i];
    for (int c = 0; c < b.nch; ++c) {
      const long long bin = std::llround(b.ch[c].raw() / half);
      for (long long db = -1; db <= 1; ++db) {
        const auto it = bins.find(bin + db);
        if (it == bins.end()) continue;
        const std::vector<Entry>& entries = it->second;
        // Earliest start that can still reach my payload: an interferer is
        // on the air until start + its burst + guard.
        const double first = pay_lo - bin_max_burst[bin + db] - guard;
        auto e = std::lower_bound(
            entries.begin(), entries.end(), first,
            [](const Entry& a, double t) { return a.start < t; });
        for (; e != entries.end() && e->start < pay_hi + guard; ++e) {
          if (e->burst == i) continue;
          if (std::abs(e->channel - b.ch[c].raw()) >= half) continue;
          const BurstInfo& o = bursts[e->burst];
          const tag::BurstWindow other{units::Seconds{o.start},
                                       units::Seconds{o.burst},
                                       units::Seconds{guard}};
          const tag::Vulnerability v = tag::classify_vulnerability(
              mine, other, units::Seconds{b.symbol_seconds});
          if (v == tag::Vulnerability::kClear) continue;
          const double po = std::min(pay_hi, o.start + o.burst + guard) -
                            std::max(pay_lo, o.start - guard);
          const double w =
              std::clamp(po, 0.0, b.burst) / std::max(b.burst, 1e-12);
          out.push_back({e->burst, v, w});
        }
      }
    }
    // A mirror-sideband (DSB) pair can meet the same interferer on both
    // channels: keep one contact per interferer, worst verdict, largest
    // duty weight.
    std::sort(out.begin(), out.end(), [](const Contact& a, const Contact& b) {
      return a.other < b.other;
    });
    std::size_t n = 0;
    for (std::size_t k = 0; k < out.size(); ++k) {
      if (n > 0 && out[n - 1].other == out[k].other) {
        out[n - 1].verdict = std::max(out[n - 1].verdict, out[k].verdict);
        out[n - 1].overlap_weight =
            std::max(out[n - 1].overlap_weight, out[k].overlap_weight);
      } else {
        out[n++] = out[k];
      }
    }
    out.erase(out.begin() + static_cast<std::ptrdiff_t>(n), out.end());
  }
  return contacts;
}

}  // namespace

FleetResult FleetEngine::run(const Scenario& sc) const {
  for (const ScenarioTag& t : sc.tags) {
    if (!t.custom_baseband.empty()) {
      throw std::invalid_argument(
          "FleetEngine: custom-baseband tag '" + t.name +
          "' has no analytic error model — use ScenarioEngine");
    }
  }

  const ScenarioPlan plan = resolve_scenario_plan(sc);

  FleetResult result;
  result.mac.resize(sc.tags.size());
  for (std::size_t i = 0; i < sc.tags.size(); ++i) {
    const ScenarioTagPlan& tp = plan.tags[i];
    result.mac[i].transmitted = tp.transmitted;
    result.mac[i].deferrals = tp.deferrals;
    result.mac[i].start_seconds = tp.start_seconds;
    result.mac[i].last_sensed_dbm = tp.last_sensed_dbm;
  }

  // ---- Burst table: every transmitted burst, with its channel footprint.
  std::vector<BurstInfo> bursts;
  bursts.reserve(sc.tags.size());
  for (std::size_t i = 0; i < sc.tags.size(); ++i) {
    if (!plan.tags[i].transmitted) continue;
    BurstInfo b;
    b.tag = i;
    b.start = plan.tags[i].start_seconds;
    b.burst = plan.tags[i].burst_seconds;
    b.seg = plan.segment_of_time(b.start + 0.5 * b.burst);
    const double station_off = plan.station_offset[static_cast<std::size_t>(
        plan.selected_station[b.seg][i])];
    b.nch = tag_backscatter_channels(sc.tags[i], units::Hertz{station_off},
                                    b.ch);
    b.rds = plan.tags[i].rds;
    b.symbol_seconds =
        b.rds ? 1.0 / fm::kRdsBitRateHz
              : 1.0 / tag::FskParams::for_rate(sc.tags[i].rate).symbol_rate;
    bursts.push_back(b);
  }

  const std::vector<std::vector<Contact>> contacts = find_contacts(bursts);

  // ---- Classify and resolve every audible (burst, receiver) link.
  // Links are laid out receiver-major like ScenarioResult, so best-link tie
  // breaking (first receiver wins) matches the signal-level engine.
  const double certain_loss_delta_db =
      kCaptureMarginDb - kCaptureAmbiguityBandDb;
  std::vector<bool> burst_contested(bursts.size(), false);
  std::vector<PhyPair> phy_pairs;
  for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
    const ScenarioReceiver& rx = sc.receivers[r];
    const double noise_watts = receiver_noise_floor(rx).to_watts().raw();
    for (std::size_t bi = 0; bi < bursts.size(); ++bi) {
      const BurstInfo& b = bursts[bi];
      const ScenarioTag& t = sc.tags[b.tag];
      const double station_off = plan.station_offset[static_cast<std::size_t>(
          plan.selected_station[b.seg][b.tag])];
      if (!tag_audible_at(t, units::Hertz{station_off}, rx.tune_offset)) {
        continue;
      }

      const double p_dbm = plan.rx_power_dbm[b.seg][r][b.tag];

      // Interference budget: co-channel stations (a carrier within half a
      // spacing of the tuned channel jams the tag's whole channel) ...
      double interference_watts = 0.0;
      if (plan.multi) {
        for (std::size_t s = 0; s < sc.stations.size(); ++s) {
          if (std::abs(plan.station_offset[s] - rx.tune_offset.raw()) <
              fm::kChannelSpacingHz / 2.0) {
            interference_watts +=
                station_power_at(sc.stations[s], plan.rx_pos[b.seg][r])
                    .to_watts()
                    .raw();
          }
        }
      } else if (std::abs(rx.tune_offset.raw()) <
                 fm::kChannelSpacingHz / 2.0) {
        interference_watts += dsp::watts_from_dbm(plan.receiver_direct_dbm[r]);
      }

      // ... plus every contacting burst, classified against the capture
      // margin at THIS receiver: captured interferers fold into the SINR,
      // deep payload collisions decide the link analytically, and only the
      // genuinely ambiguous contacts demand waveforms.
      bool certain_loss = false;
      bool contested = false;
      for (const Contact& c : contacts[bi]) {
        const BurstInfo& o = bursts[c.other];
        const double delta = p_dbm - plan.rx_power_dbm[o.seg][r][o.tag];
        if (delta >= kCaptureMarginDb) {
          interference_watts +=
              c.overlap_weight *
              dsp::watts_from_dbm(plan.rx_power_dbm[o.seg][r][o.tag]);
          continue;
        }
        if (c.verdict == tag::Vulnerability::kCollision &&
            delta <= certain_loss_delta_db) {
          certain_loss = true;
          continue;
        }
        contested = true;
      }

      FleetLink link;
      link.tag_index = b.tag;
      link.receiver_index = r;
      link.rx_power_dbm = p_dbm;
      link.snr_db = 10.0 * std::log10(dsp::watts_from_dbm(p_dbm) /
                                      (noise_watts + interference_watts));
      link.latency_seconds =
          (b.start - (sc.settle.raw() + t.start.raw())) + b.burst;
      if (certain_loss) {
        // The colliding interferer is too close in power for capture: every
        // packet sees at least a symbol of comparable-power co-channel
        // energy. Chance-level BER, nothing delivered.
        link.resolution = FleetLinkResolution::kAnalyticCollision;
        link.ber = b.rds ? 1.0 : 0.5;
        link.delivered = false;
      } else if (b.rds || contested) {
        link.resolution = FleetLinkResolution::kPhyCluster;
        burst_contested[bi] = true;
        phy_pairs.push_back({bi, r, result.links.size()});
      } else {
        link.resolution = FleetLinkResolution::kAnalyticClear;
        const rx::AnalyticBurstReport rep = rx::analytic_fsk_burst(
            link.snr_db, t.rate, t.num_bits, t.packet_bits,
            t.fading.has_value());
        link.ber = rep.ber;
        link.delivered = rep.packets_ok == rep.packets;
        link.bits_delivered = rep.bits_delivered;
        link.goodput_bps =
            static_cast<double>(rep.bits_delivered) / sc.duration.raw();
      }
      result.links.push_back(link);
    }
  }

  // ---- Contested clusters -> minimal PHY sub-scenes.
  // A cluster is the connected component of a contested burst and its
  // contacts (the interference that must physically exist in its
  // sub-scene); two contested bursts sharing an interferer merge.
  UnionFind uf(bursts.size());
  for (std::size_t bi = 0; bi < bursts.size(); ++bi) {
    if (!burst_contested[bi]) continue;
    for (const Contact& c : contacts[bi]) uf.unite(bi, c.other);
  }
  std::map<std::size_t, std::vector<std::size_t>> clusters;  // root -> members
  for (std::size_t bi = 0; bi < bursts.size(); ++bi) {
    clusters[uf.find(bi)].push_back(bi);
  }

  std::size_t ordinal = 0;
  for (const auto& [root, members] : clusters) {
    // Receivers with a PHY link on some member, and the member pairs to
    // harvest afterwards.
    std::vector<std::size_t> cluster_rx;
    std::vector<const PhyPair*> cluster_pairs;
    for (const PhyPair& p : phy_pairs) {
      if (uf.find(p.burst) != root) continue;
      cluster_pairs.push_back(&p);
      cluster_rx.push_back(p.receiver);
    }
    if (cluster_pairs.empty()) continue;  // pure interferer component
    std::sort(cluster_rx.begin(), cluster_rx.end());
    cluster_rx.erase(std::unique(cluster_rx.begin(), cluster_rx.end()),
                     cluster_rx.end());

    double window_begin = bursts[members.front()].start;
    double window_end = 0.0;
    for (std::size_t m : members) {
      window_begin = std::min(window_begin, bursts[m].start);
      window_end = std::max(window_end, bursts[m].start + bursts[m].burst);
    }
    window_begin = std::max(0.0, window_begin - kBurstGuardSeconds);
    window_end += kBurstGuardSeconds + kSubsceneTailSeconds;
    const double quantum = std::max(config_.subscene_quantum.raw(), 1e-3);
    const double duration =
        std::ceil((window_end - window_begin) / quantum) * quantum;
    const std::size_t segm =
        plan.segment_of_time(0.5 * (window_begin + window_end));

    Scenario sub;
    sub.name = sc.name + "#cluster" + std::to_string(ordinal);
    sub.seed = derive_seed(sc.seed, kFleetSubsceneStream + ordinal);
    sub.settle = units::Seconds{kSubsceneSettleSeconds};
    sub.duration = units::Seconds{duration};
    sub.station = sc.station;
    sub.stations = sc.stations;
    for (std::size_t r : cluster_rx) {
      ScenarioReceiver rr = sc.receivers[r];
      rr.position = plan.rx_pos[segm][r];
      rr.waypoints.clear();
      rr.noise_seed = derive_seed(plan.receiver_noise_seed[r], ordinal);
      // Pin the legacy NaN policy's outcome: the sub-scene sees only a
      // subset of tags, so re-deriving "strongest tag's ambient" could
      // drift from the parent scene.
      if (!plan.multi) {
        rr.direct_power = units::Dbm{plan.receiver_direct_dbm[r]};
      }
      sub.receivers.push_back(std::move(rr));
    }
    for (std::size_t m : members) {
      const BurstInfo& b = bursts[m];
      ScenarioTag tt = sc.tags[b.tag];
      // The MAC already resolved: replay the burst at its resolved start
      // (relative to the cluster window) under plain ALOHA.
      tt.start = units::Seconds{b.start - window_begin};
      tt.mac = tag::MacConfig{};
      tt.position = plan.tag_pos[b.seg][b.tag];
      tt.waypoints.clear();
      tt.station_index = plan.selected_station[b.seg][b.tag];
      tt.seed = plan.tags[b.tag].content_seed;
      if (tt.fading) tt.fading_seed = plan.tags[b.tag].fading_seed;
      sub.tags.push_back(std::move(tt));
    }

    const ScenarioResult sub_result =
        ScenarioEngine({.keep_captures = false}).run(sub);

    result.stats.phy_clusters += 1;
    result.stats.phy_tags_rendered += members.size();
    result.stats.phy_subscene_seconds += kSubsceneSettleSeconds + duration;

    for (const PhyPair* p : cluster_pairs) {
      const auto sub_tag = static_cast<std::size_t>(
          std::lower_bound(members.begin(), members.end(), p->burst) -
          members.begin());
      const auto sub_rx = static_cast<std::size_t>(
          std::lower_bound(cluster_rx.begin(), cluster_rx.end(),
                           p->receiver) -
          cluster_rx.begin());
      FleetLink& link = result.links[p->link_index];
      for (const TagLinkReport& l : sub_result.receivers[sub_rx].links) {
        if (l.tag_index != sub_tag) continue;
        link.ber = l.burst.ber.ber;
        link.bits_delivered = l.burst.bits_delivered;
        link.goodput_bps = static_cast<double>(l.burst.bits_delivered) /
                           sc.duration.raw();
        link.delivered =
            l.rds ? (l.rds->synced && l.rds->bler == 0.0)
                  : (l.burst.packets > 0 &&
                     l.burst.packets_ok == l.burst.packets);
        break;
      }
    }
    ++ordinal;
  }

  // ---- Aggregate, mirroring ScenarioEngine's best-link rule.
  result.stats.links_total = result.links.size();
  for (const FleetLink& link : result.links) {
    switch (link.resolution) {
      case FleetLinkResolution::kAnalyticClear:
        ++result.stats.analytic_clear;
        break;
      case FleetLinkResolution::kAnalyticCollision:
        ++result.stats.analytic_collision;
        break;
      case FleetLinkResolution::kPhyCluster:
        ++result.stats.phy_links;
        break;
    }
  }
  std::vector<std::ptrdiff_t> best_of_tag(sc.tags.size(), -1);
  for (std::size_t k = 0; k < result.links.size(); ++k) {
    const FleetLink& link = result.links[k];
    std::ptrdiff_t& best = best_of_tag[link.tag_index];
    if (best < 0 || link.ber < result.links[static_cast<std::size_t>(best)].ber) {
      best = static_cast<std::ptrdiff_t>(k);
    }
  }
  double latency_sum = 0.0;
  std::size_t latency_count = 0;
  for (std::size_t i = 0; i < sc.tags.size(); ++i) {
    if (best_of_tag[i] < 0) continue;
    const FleetLink& link =
        result.links[static_cast<std::size_t>(best_of_tag[i])];
    result.best_per_tag.push_back(link);
    result.aggregate_goodput_bps += link.goodput_bps;
    if (link.delivered) {
      latency_sum += link.latency_seconds;
      ++latency_count;
    }
  }
  if (latency_count > 0) {
    result.mean_delivery_latency_seconds =
        latency_sum / static_cast<double>(latency_count);
  }
  return result;
}

std::vector<FleetResult> run_fleet_sweep(SweepRunner& runner,
                                         const FleetEngine& engine,
                                         std::vector<Scenario> scenarios) {
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    apply_scenario_seed_policy(scenarios[i], i, runner.config());
  }
  return runner.map(scenarios,
                    [&engine](const Scenario& sc) { return engine.run(sc); });
}

}  // namespace fmbs::core
