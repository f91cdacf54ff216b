#include "backend/machine_file.hpp"

#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <type_traits>
#include <variant>

#include "backend/stacks.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "host/noise.hpp"
#include "net/fault.hpp"
#include "net/topology.hpp"

namespace comb::backend {

namespace {

struct Parsed {
  // (section, key) -> (value, lineNo)
  std::map<std::pair<std::string, std::string>, std::pair<std::string, int>>
      entries;
};

Parsed tokenize(std::istream& in, const std::string& source) {
  Parsed parsed;
  std::string section;  // "" = top level
  std::string line;
  int lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    // Strip comments (# and ;) and whitespace.
    if (const auto hash = line.find_first_of("#;"); hash != std::string::npos)
      line.erase(hash);
    const auto body = trim(line);
    if (body.empty()) continue;
    if (body.front() == '[') {
      COMB_REQUIRE(body.back() == ']',
                   strFormat("%s:%d: malformed section header", source.c_str(),
                             lineNo));
      section = std::string(trim(body.substr(1, body.size() - 2)));
      continue;
    }
    const auto eq = body.find('=');
    COMB_REQUIRE(eq != std::string::npos,
                 strFormat("%s:%d: expected key = value", source.c_str(),
                           lineNo));
    const auto key = std::string(trim(body.substr(0, eq)));
    const auto value = std::string(trim(body.substr(eq + 1)));
    COMB_REQUIRE(!key.empty() && !value.empty(),
                 strFormat("%s:%d: empty key or value", source.c_str(),
                           lineNo));
    const bool inserted =
        parsed.entries.emplace(std::pair{section, key}, std::pair{value, lineNo})
            .second;
    COMB_REQUIRE(inserted, strFormat("%s:%d: duplicate key '%s'",
                                     source.c_str(), lineNo, key.c_str()));
  }
  return parsed;
}

/// Index of the option named `word`; otherwise a ConfigError naming
/// every option, "<what> must be 'a', 'b' or 'c', got '<word>'".
template <typename Options, typename NameOf>
std::size_t pick(const std::string& source, const std::string& what,
                 const std::string& word, const Options& options,
                 NameOf nameOf) {
  std::string names;
  std::size_t i = 0;
  for (const auto& option : options) {
    if (word == nameOf(option)) return i;
    if (i > 0) names += i + 1 == std::size(options) ? " or " : ", ";
    names += std::string("'") + nameOf(option) + "'";
    ++i;
  }
  throw ConfigError(source + ": " + what + " must be " + names + ", got '" +
                    word + "'");
}

class Binder {
 public:
  Binder(Parsed parsed, std::string source)
      : parsed_(std::move(parsed)), source_(std::move(source)) {}

  void str(const std::string& section, const std::string& key,
           std::string& out) {
    if (auto v = take(section, key)) out = *v;
  }

  /// A numeric key, in file units `scale` times the model's (integer
  /// members truncate).
  template <typename T>
  void number(const std::string& section, const std::string& key, T& out,
              double scale = 1.0) {
    if (auto v = take(section, key)) {
      char* end = nullptr;
      const double parsed = std::strtod(v->c_str(), &end);
      COMB_REQUIRE(end != v->c_str() && *end == '\0',
                   strFormat("%s: key '%s' expects a number, got '%s'",
                             source_.c_str(), key.c_str(), v->c_str()));
      out = static_cast<T>(parsed * scale);
    }
  }

  /// A key naming one of `options`; `what` names it in the error.
  template <typename E, typename NameOf>
  void choice(const std::string& section, const std::string& key,
              const std::string& what, E& out,
              std::initializer_list<E> options, NameOf nameOf) {
    std::string word = nameOf(out);
    str(section, key, word);
    out = options.begin()[pick(source_, what, word, options, nameOf)];
  }

  /// All keys must have been consumed.
  void finish() const {
    for (const auto& [sk, vl] : parsed_.entries) {
      if (!consumed_.count(sk)) {
        throw ConfigError(strFormat(
            "%s:%d: unknown key '%s' in section '[%s]'", source_.c_str(),
            vl.second, sk.second.c_str(), sk.first.c_str()));
      }
    }
  }

 private:
  std::optional<std::string> take(const std::string& section,
                                  const std::string& key) {
    const auto it = parsed_.entries.find(std::pair{section, key});
    if (it == parsed_.entries.end()) return std::nullopt;
    consumed_.insert(it->first);
    return it->second.first;
  }

  Parsed parsed_;
  std::string source_;
  std::set<std::pair<std::string, std::string>> consumed_;
};

}  // namespace

MachineConfig parseMachineFile(std::istream& in, const std::string& source) {
  Binder bind(tokenize(in, source), source);

  std::string transport = stacks().front().name;
  bind.str("", "transport", transport);
  // `stack` is an alias for `transport` (the docs talk about software
  // stacks); when both appear, `stack` wins.
  bind.str("", "stack", transport);
  const StackRow& stack =
      stacks()[pick(source, "transport", transport, stacks(),
                    [](const StackRow& r) { return r.name; })];
  MachineConfig m = stack.presets.front().make();
  bind.str("", "name", m.name);

  constexpr double kMBps = 1e6;
  constexpr double kUs = 1e-6;
  constexpr double kNs = 1e-9;

  bind.number("fabric", "link_rate_MBps", m.fabric.link.rate, kMBps);
  bind.number("fabric", "link_latency_us", m.fabric.link.latency, kUs);
  bind.number("fabric", "switch_latency_us", m.fabric.sw.routingLatency, kUs);
  bind.number("fabric", "switch_ports", m.fabric.sw.ports);
  bind.number("fabric", "mtu", m.fabric.mtu);
  bind.number("fabric", "packet_header", m.fabric.perPacketHeader);

  // [topology]: switch-graph shape plus the finite-queue knobs (the
  // queue config is per-switch but belongs with the fabric shape).
  auto& topo = m.fabric.topo;
  bind.choice("topology", "kind", "topology kind", topo.kind,
              {net::TopologyKind::SingleSwitch, net::TopologyKind::FatTree,
               net::TopologyKind::Dragonfly},
              net::topologyKindName);
  bind.number("topology", "nodes_per_switch", topo.nodesPerSwitch);
  bind.number("topology", "spines", topo.spines);
  bind.number("topology", "groups", topo.groups);
  bind.number("topology", "routers_per_group", topo.routersPerGroup);
  bind.number("topology", "trunk_rate_scale", topo.trunkRateScale);

  auto& queue = m.fabric.sw.queue;
  bind.number("topology", "queue_depth_packets", queue.depthPackets);
  bind.number("topology", "queue_depth_bytes", queue.depthBytes);
  bind.choice("topology", "arbitration", "arbitration", queue.arbitration,
              {net::Arbitration::RoundRobin, net::Arbitration::Fifo},
              net::arbitrationName);
  bind.choice("topology", "backpressure", "backpressure", queue.backpressure,
              {net::Backpressure::TailDrop, net::Backpressure::Credit},
              net::backpressureName);

  auto& fault = m.fabric.link.fault;
  bind.number("fault", "drop", fault.dropProb);
  bind.number("fault", "burst", fault.burstLen);
  bind.number("fault", "corrupt", fault.corruptProb);
  bind.number("fault", "jitter_us", fault.jitter, kUs);
  bind.number("fault", "seed", fault.seed);

  bind.number("noise", "period_us", m.noise.period, kUs);
  bind.number("noise", "duration_us", m.noise.duration, kUs);
  bind.number("noise", "jitter", m.noise.jitter);
  bind.number("noise", "daemons", m.noise.daemons);
  bind.number("noise", "coalesce_us", m.noise.coalesce, kUs);
  bind.number("noise", "seed", m.noise.seed);

  // The active stack's section: its field walk, then its placement hook.
  for (const StackField& f : stack.fields(m)) {
    if (!f.fileKey) continue;
    std::visit(
        [&](auto member) {
          if constexpr (std::is_same_v<decltype(member), StackChoice>)
            bind.choice(stack.section, f.fileKey, f.fileKey, *member.flag,
                        {true, false}, [&](bool b) { return member.name(b); });
          else
            bind.number(stack.section, f.fileKey, *member, f.scale);
        },
        f.member);
  }
  if (stack.place) stack.place(m);

  bind.number("host", "seconds_per_iter_ns", m.secondsPerWorkIter, kNs);
  bind.number("host", "cpus_per_node", m.cpusPerNode);
  bind.number("host", "nic_cpu", m.nicCpu);
  bind.finish();

  net::validateFaultSpec(m.fabric.link.fault);
  host::validateNoiseSpec(m.noise);
  net::validateTopology(m.fabric.topo, m.fabric.sw);
  const transport::ReliabilityConfig& rel = stack.rel(m);
  COMB_REQUIRE(rel.ackTimeout > 0 && rel.backoff >= 1.0 && rel.maxRetries >= 1,
               source + ": bad reliability configuration (ack_timeout_us > 0, "
                        "backoff >= 1, max_retries >= 1)");
  COMB_REQUIRE(m.fabric.link.rate > 0, source + ": link rate must be > 0");
  COMB_REQUIRE(m.secondsPerWorkIter > 0,
               source + ": seconds_per_iter must be > 0");
  COMB_REQUIRE(m.cpusPerNode >= 1 && m.nicCpu >= 0 &&
                   m.nicCpu < m.cpusPerNode,
               source + ": bad cpus_per_node / nic_cpu combination");
  if (const char* why = stack.shapeError ? stack.shapeError(m) : nullptr)
    throw ConfigError(source + ": " + why);
  return m;
}

MachineConfig loadMachineFile(const std::string& path) {
  std::ifstream f(path);
  COMB_REQUIRE(f.good(), "cannot open machine file: " + path);
  return parseMachineFile(f, path);
}

}  // namespace comb::backend
