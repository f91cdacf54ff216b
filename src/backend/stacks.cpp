#include "backend/stacks.hpp"

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "transport/gm.hpp"
#include "transport/portals.hpp"
#include "transport/progress_thread.hpp"
#include "transport/rdma.hpp"

namespace comb::backend {

namespace {

constexpr double kMBps = 1e6;
constexpr double kUs = 1e-6;
constexpr double kKB = 1024.0;

/// A stack's own fields, then the four retransmission keys all share.
std::vector<StackField> withRel(std::vector<StackField> f,
                                transport::ReliabilityConfig& r) {
  f.insert(f.end(), {{"ack_bytes", "rel.ack_bytes", &r.ackBytes},
                     {"max_retries", "rel.max_retries", &r.maxRetries},
                     {"ack_timeout_us", "rel.ack_timeout", &r.ackTimeout, kUs},
                     {"backoff", "rel.backoff", &r.backoff}});
  return f;
}

/// The GM library protocol: all of the GM stack, and the core under the
/// progress engine.
std::vector<StackField> gmProtoFields(transport::GmConfig& g) {
  return withRel(
      {{"eager_threshold_kb", "eager_threshold", &g.eagerThreshold, kKB},
       {"post_overhead_us", "post_overhead", &g.postOverhead, kUs},
       {"eager_tx_copy_MBps", "eager_tx_copy_rate", &g.eagerTxCopyRate, kMBps},
       {"eager_rx_copy_MBps", "eager_rx_copy_rate", &g.eagerRxCopyRate, kMBps},
       {"lib_call_cost_us", "lib_call_cost", &g.libCallCost, kUs},
       {"ctrl_handle_cost_us", "ctrl_handle_cost", &g.ctrlHandleCost, kUs},
       {nullptr, "ctrl_bytes", &g.ctrlBytes}},
      g.rel);
}

std::vector<StackField> portalsFields(MachineConfig& m) {
  auto& p = m.portals;
  return withRel(
      {{"post_syscall_us", "post_syscall", &p.postSyscall, kUs},
       {"post_kernel_us", "post_kernel", &p.postKernel, kUs},
       {"lib_call_cost_us", "lib_call_cost", &p.libCallCost, kUs},
       {"unexpected_copy_MBps", "unexpected_copy_rate", &p.unexpectedCopyRate,
        kMBps},
       {"per_frag_tx_us", "per_frag_tx", &p.nic.perFragTx, kUs},
       {"per_frag_rx_us", "per_frag_rx", &p.nic.perFragRx, kUs},
       {"kernel_copy_MBps", "kernel_copy_rate", &p.nic.kernelCopyRate, kMBps}},
      p.rel);
}

std::vector<StackField> progressFields(MachineConfig& m) {
  auto& pt = m.progress;
  auto f = gmProtoFields(pt.proto);
  f.insert(f.end(),
           {{"placement", "placement",
             StackChoice{&pt.dedicatedCore, "dedicated", "oversubscribed"}},
            {"poll_period_us", "poll_period", &pt.pollPeriod, kUs},
            {"wakeup_us", "wakeup_latency", &pt.wakeupLatency, kUs},
            {"poll_cost_us", "poll_cost", &pt.pollCost, kUs},
            {"handoff_us", "handoff_penalty", &pt.handoffPenalty, kUs}});
  return f;
}

std::vector<StackField> rdmaFields(MachineConfig& m) {
  auto& r = m.rdma;
  return withRel(
      {{"eager_threshold_kb", "eager_threshold", &r.eagerThreshold, kKB},
       {"post_overhead_us", "post_overhead", &r.postOverhead, kUs},
       {"lib_call_cost_us", "lib_call_cost", &r.libCallCost, kUs},
       {"match_delay_us", "match_delay", &r.matchDelay, kUs},
       {"unexpected_copy_MBps", "unexpected_copy_rate", &r.unexpectedCopyRate,
        kMBps},
       {nullptr, "ctrl_bytes", &r.ctrlBytes},
       {"per_frag_tx_us", "per_frag_tx", &r.nic.perFragTx, kUs}},
      r.rel);
}

/// A dedicated engine needs a core of its own (CPU 1 of at least 2; the
/// application owns CPU 0); an oversubscribed one shares CPU 0. The
/// preset and any machine file that switches placement go through here.
void placeProgressEngine(MachineConfig& m) {
  if (m.progress.dedicatedCore) {
    if (m.cpusPerNode < 2) m.cpusPerNode = 2;
    if (m.nicCpu == 0) m.nicCpu = 1;
  } else {
    m.cpusPerNode = 1;
    m.nicCpu = 0;
  }
}

const char* progressShapeError(const MachineConfig& m) {
  if (m.progress.dedicatedCore && (m.cpusPerNode < 2 || m.nicCpu == 0))
    return "dedicated progress placement needs cpus_per_node >= 2 with "
           "nic_cpu != 0 (the application owns CPU 0)";
  return nullptr;
}

/// Stacks whose endpoint needs only the application CPU.
template <typename Endpoint, auto Config>
std::unique_ptr<transport::Endpoint> makeOnAppCpu(const EndpointSite& s) {
  return std::make_unique<Endpoint>(s.sim, s.appCpu, s.fabric, s.node,
                                    s.cfg.*Config);
}

std::unique_ptr<transport::Endpoint> makePortals(const EndpointSite& s) {
  return std::make_unique<transport::PortalsEndpoint>(
      s.sim, s.appCpu, s.nicCpu, s.fabric, s.node, s.cfg.portals);
}

std::unique_ptr<transport::Endpoint> makeProgress(const EndpointSite& s) {
  if (const char* why = progressShapeError(s.cfg)) throw ConfigError(why);
  host::Cpu& engineCpu = s.cfg.progress.dedicatedCore ? s.nicCpu : s.appCpu;
  return std::make_unique<transport::ProgressThreadEndpoint>(
      s.sim, s.appCpu, engineCpu, s.fabric, s.node, s.cfg.progress);
}

constexpr StackPreset kGmPresets[] = {{"gm", gmMachine}};
constexpr StackPreset kPortalsPresets[] = {{"portals", portalsMachine}};
constexpr StackPreset kProgressPresets[] = {
    {"progress_thread", progressThreadMachine},
    {"progress_oversub", progressOversubMachine}};
constexpr StackPreset kRdmaPresets[] = {{"rdma", rdmaMachine}};

// Rows in TransportKind order: stackRow indexes by kind.
constexpr StackRow kStacks[] = {
    {TransportKind::Gm, "gm", kGmPresets, "gm",
     [](MachineConfig& m) { return gmProtoFields(m.gm); },
     [](MachineConfig& m) -> auto& { return m.gm.rel; }, nullptr, nullptr,
     makeOnAppCpu<transport::GmEndpoint, &MachineConfig::gm>},
    {TransportKind::Portals, "portals", kPortalsPresets, "portals",
     portalsFields, [](MachineConfig& m) -> auto& { return m.portals.rel; },
     nullptr, nullptr, makePortals},
    {TransportKind::ProgressThread, "progress_thread", kProgressPresets,
     "progress", progressFields,
     [](MachineConfig& m) -> auto& { return m.progress.proto.rel; },
     placeProgressEngine, progressShapeError, makeProgress},
    {TransportKind::Rdma, "rdma", kRdmaPresets, "rdma", rdmaFields,
     [](MachineConfig& m) -> auto& { return m.rdma.rel; }, nullptr, nullptr,
     makeOnAppCpu<transport::RdmaEndpoint, &MachineConfig::rdma>},
};

}  // namespace

std::string StackField::text() const {
  if (const auto* c = std::get_if<StackChoice>(&member))
    return c->name(*c->flag);
  if (const auto* d = std::get_if<double*>(&member))
    return strFormat("%.17g", **d);
  if (const auto* b = std::get_if<Bytes*>(&member)) return std::to_string(**b);
  return std::to_string(*std::get<int*>(member));
}

const char* transportKindName(TransportKind k) { return stackRow(k).name; }

std::span<const StackRow> stacks() { return kStacks; }

const StackRow& stackRow(TransportKind k) {
  return kStacks[static_cast<std::size_t>(k)];
}

MachineConfig presetMachine(std::string_view name) {
  for (const StackRow& row : kStacks)
    for (const StackPreset& p : row.presets)
      if (p.name == name) return p.make();
  throw ConfigError("unknown machine '" + std::string(name) + "' (" +
                    presetNames() + ")");
}

std::string presetNames() {
  std::string names;
  for (const StackRow& row : kStacks)
    for (const StackPreset& p : row.presets)
      names += (names.empty() ? "" : " | ") + std::string(p.name);
  return names;
}

}  // namespace comb::backend
