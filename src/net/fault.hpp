// Deterministic link fault injection.
//
// A FaultSpec describes how a link misbehaves: Bernoulli packet loss with
// optional burstiness (one loss event discards `burstLen` consecutive
// packets — the classic Gilbert model collapsed to its loss state),
// payload corruption (the packet arrives but fails its checksum and is
// discarded by the receiving NIC), and bounded delivery jitter. All
// randomness comes from a per-link xoshiro stream seeded from
// (spec.seed, link name), so a run is bit-reproducible for a fixed seed
// no matter how sweep points are scheduled across threads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/units.hpp"

namespace comb::net {

struct FaultSpec {
  /// Probability that a packet starts a loss event.
  double dropProb = 0.0;
  /// Packets discarded per loss event (>= 1).
  int burstLen = 1;
  /// Probability that a delivered packet arrives corrupted.
  double corruptProb = 0.0;
  /// Extra delivery latency, uniform in [0, jitter). FIFO order per link
  /// is preserved (a jittered packet never overtakes its predecessor).
  Time jitter = 0.0;
  /// Root seed for the per-link fault streams.
  std::uint64_t seed = 7;

  /// Faults that destroy packets — these engage the transports'
  /// retransmission machinery.
  bool lossy() const { return dropProb > 0.0 || corruptProb > 0.0; }
  /// Any effect at all (lossy or jitter-only).
  bool active() const { return lossy() || jitter > 0.0; }
};

/// Validate a spec (throws ConfigError on out-of-range values).
void validateFaultSpec(const FaultSpec& spec);

/// Parse the CLI syntax `drop=0.01,burst=4,seed=7[,corrupt=P][,jitter_us=U]`.
/// Unknown keys and out-of-range values throw ConfigError.
FaultSpec parseFaultSpec(std::string_view text);

/// Render a spec back to the CLI syntax (round-trips via parseFaultSpec).
std::string faultSpecSummary(const FaultSpec& spec);

/// Per-run fault/reliability counters, aggregated from links and NICs.
struct FaultCounters {
  std::uint64_t dropsInjected = 0;      ///< packets discarded by links
  std::uint64_t corruptsInjected = 0;   ///< packets delivered corrupted
  std::uint64_t retransmits = 0;        ///< fragments re-sent by NICs
  std::uint64_t timeoutWakeups = 0;     ///< retransmission timer firings
  std::uint64_t duplicatesFiltered = 0; ///< duplicate fragments dropped at rx

  FaultCounters& operator+=(const FaultCounters& o) {
    dropsInjected += o.dropsInjected;
    corruptsInjected += o.corruptsInjected;
    retransmits += o.retransmits;
    timeoutWakeups += o.timeoutWakeups;
    duplicatesFiltered += o.duplicatesFiltered;
    return *this;
  }
  bool operator==(const FaultCounters&) const = default;
  bool any() const {
    return dropsInjected || corruptsInjected || retransmits ||
           timeoutWakeups || duplicatesFiltered;
  }
};

/// FNV-1a, used to derive per-link fault-stream seeds from the link name.
constexpr std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace comb::net
