// Randomized stress test: many messages with random sizes, tags and
// posting orders, verified byte-for-byte. The sender derives every
// payload from a seeded RNG; the receiver re-derives and compares. Runs
// over all four stacks, lossless and under seeded drop+corrupt faults,
// and several seeds (TEST_P) — this is the fuzz net under the shared
// receive path (reassembly, the send-order gate, the matcher), every
// protocol state machine and the reliability engine.
//
// The death tests below pin the size rule on the one claim path: a
// receive that takes an unexpected message longer than its buffer aborts
// on every stack, eager or rendezvous.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "backend/stacks.hpp"
#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "common/units.hpp"
#include "mpi/mpi.hpp"
#include "net/fault.hpp"
#include "nic/reliable_link.hpp"

namespace comb::backend {
namespace {

using namespace comb::units;
using mpi::Request;
using mpi::Status;
using sim::Task;

struct MsgPlan {
  int tag;
  Bytes bytes;
  std::uint64_t payloadSeed;
};

// Deterministic plan both sides can derive from the seed.
std::vector<MsgPlan> makePlan(std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<MsgPlan> plan;
  for (int i = 0; i < count; ++i) {
    MsgPlan m;
    m.tag = static_cast<int>(rng.below(5));  // few tags -> matching stress
    // Mix of tiny, eager-sized and rendezvous-sized messages.
    switch (rng.below(4)) {
      case 0: m.bytes = rng.below(64) + 1; break;
      case 1: m.bytes = rng.below(4_KB) + 1; break;
      case 2: m.bytes = rng.below(20_KB) + 1; break;
      default: m.bytes = rng.below(120_KB) + 1; break;
    }
    m.payloadSeed = rng();
    plan.push_back(m);
  }
  return plan;
}

std::vector<std::byte> payloadFor(const MsgPlan& m) {
  Rng rng(m.payloadSeed);
  std::vector<std::byte> data(m.bytes);
  for (auto& b : data) b = static_cast<std::byte>(rng.below(256));
  return data;
}

Task<void> stressSender(SimProc& p, std::uint64_t seed, int count) {
  const auto plan = makePlan(seed, count);
  Rng jitter(seed ^ 0xABCD);
  auto& mpi = p.mpi();
  std::vector<Request> inflight;
  for (const auto& m : plan) {
    const auto data = payloadFor(m);
    inflight.push_back(
        co_await mpi.isend(mpi.world(), 1, m.tag, m.bytes, data));
    // Random pacing: sometimes burst, sometimes compute in between.
    if (jitter.below(3) == 0) co_await p.work(jitter.below(200'000));
    // Occasionally drain the send pool.
    if (inflight.size() > 8) co_await mpi.waitall(inflight);
    std::erase_if(inflight, [](const Request& r) { return !r.valid(); });
  }
  co_await mpi.waitall(inflight);
}

Task<void> stressReceiver(SimProc& p, std::uint64_t seed, int count,
                          int& mismatches) {
  const auto plan = makePlan(seed, count);
  Rng jitter(seed ^ 0x1234);
  auto& mpi = p.mpi();

  // Receives must match in send order *per tag* (non-overtaking). Build
  // per-tag FIFO expectations.
  std::map<int, std::vector<const MsgPlan*>> byTag;
  for (const auto& m : plan) byTag[m.tag].push_back(&m);

  // Post receives tag by tag in round-robin order with random delays —
  // a posting order quite different from the send order.
  struct Posted {
    const MsgPlan* plan;
    Request req;
    std::vector<std::byte> buf;
  };
  std::vector<Posted> posted;
  posted.reserve(static_cast<std::size_t>(count));
  bool postedAny = true;
  std::map<int, std::size_t> cursor;
  while (postedAny) {
    postedAny = false;
    for (auto& [tag, msgs] : byTag) {
      auto& cur = cursor[tag];
      if (cur >= msgs.size()) continue;
      postedAny = true;
      const MsgPlan* m = msgs[cur++];
      Posted entry;
      entry.plan = m;
      entry.buf.resize(m->bytes);
      entry.req =
          co_await mpi.irecv(mpi.world(), 0, tag, m->bytes, entry.buf);
      posted.push_back(std::move(entry));
      if (jitter.below(4) == 0) co_await p.work(jitter.below(100'000));
    }
  }
  // Wait for everything, then verify bytes.
  std::vector<Request> reqs;
  for (auto& e : posted) reqs.push_back(e.req);
  co_await mpi.waitall(reqs);
  for (const auto& e : posted) {
    if (e.buf != payloadFor(*e.plan)) ++mismatches;
  }
}

// Each stack's default preset carries the stack's own name.
MachineConfig machineFor(TransportKind kind) {
  return presetMachine(transportKindName(kind));
}

struct Param {
  TransportKind kind;
  std::uint64_t seed;
};

// One stress run; `lossy` puts seeded drop+corrupt faults on every link.
void runStress(const Param& param, bool lossy) {
  auto machine = machineFor(param.kind);
  if (lossy)
    machine.fabric.link.fault = net::parseFaultSpec(
        strFormat("drop=0.03,corrupt=0.01,seed=%llu",
                  static_cast<unsigned long long>(param.seed)));
  constexpr int kMessages = 60;
  SimCluster cluster(machine, 2);
  int mismatches = 0;
  cluster.launch(0, stressSender(cluster.proc(0), param.seed, kMessages));
  cluster.launch(
      1, stressReceiver(cluster.proc(1), param.seed, kMessages, mismatches));
  cluster.run();
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(cluster.mpi(0).pendingRequests(), 0u);
  EXPECT_EQ(cluster.mpi(1).pendingRequests(), 0u);
  EXPECT_EQ(cluster.mpi(0).sendsPosted(), static_cast<unsigned>(kMessages));
  EXPECT_EQ(cluster.mpi(1).recvsPosted(), static_cast<unsigned>(kMessages));
  if (lossy) {
    // The faults really bit: lost fragments were resent.
    EXPECT_GT(cluster.endpoint(0).link().retransmits() +
                  cluster.endpoint(1).link().retransmits(),
              0u);
  }
}

// Lossy runs get their own type with a PrintTo, so gtest names them by
// stack and seed instead of by raw bytes, padding included (the lossless
// names above keep gtest's byte dump).
struct LossyParam : Param {};

void PrintTo(const LossyParam& p, std::ostream* os) {
  *os << transportKindName(p.kind) << " seed " << p.seed;
}

class StressTest : public ::testing::TestWithParam<Param> {};
class LossyStressTest : public ::testing::TestWithParam<LossyParam> {};

TEST_P(StressTest, RandomTrafficByteExact) { runStress(GetParam(), false); }
TEST_P(LossyStressTest, RandomTrafficByteExact) {
  runStress(GetParam(), true);
}

std::vector<Param> stressParams() {
  std::vector<Param> params;
  for (const auto kind : {TransportKind::Gm, TransportKind::Portals,
                          TransportKind::ProgressThread, TransportKind::Rdma})
    for (const std::uint64_t seed : {11ull, 22ull, 33ull, 44ull, 55ull})
      params.push_back({kind, seed});
  return params;
}

std::vector<LossyParam> lossyParams() {
  std::vector<LossyParam> params;
  for (const Param& p : stressParams()) params.push_back({p});
  return params;
}

template <typename P>
std::string stressName(const ::testing::TestParamInfo<P>& info) {
  return std::string(transportKindName(info.param.kind)) + "_seed" +
         std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::ValuesIn(stressParams()),
                         stressName<Param>);
INSTANTIATE_TEST_SUITE_P(Seeds, LossyStressTest,
                         ::testing::ValuesIn(lossyParams()),
                         stressName<LossyParam>);

// A receive claims an unexpected message longer than its buffer: the
// sender's message has long arrived (and, on GM, been polled) when the
// 1 KB receive is posted.
struct ClaimParam {
  TransportKind kind;
  Bytes bytes;  ///< 8 KB goes eager; 100 KB goes rendezvous (except Portals)
};

void PrintTo(const ClaimParam& p, std::ostream* os) {
  *os << transportKindName(p.kind) << " " << p.bytes << " B";
}

class ReceiveClaimDeathTest : public ::testing::TestWithParam<ClaimParam> {};

TEST_P(ReceiveClaimDeathTest, LongerUnexpectedMessageIsFatal) {
  const auto& param = GetParam();
  SimCluster cluster(machineFor(param.kind), 2);
  auto sender = [](SimProc& p, Bytes bytes) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 1, bytes);
  };
  auto receiver = [](SimProc& p) -> Task<void> {
    auto& mpi = p.mpi();
    co_await p.work(2'500'000);  // 10 ms at 4 ns/iter
    co_await mpi.iprobe(mpi.world(), 0, 1, nullptr);
    co_await mpi.recv(mpi.world(), 0, 1, 1_KB);
  };
  cluster.launch(0, sender(cluster.proc(0), param.bytes));
  cluster.launch(1, receiver(cluster.proc(1)));
  EXPECT_DEATH(cluster.run(), "unexpected message exceeds posted receive buffer");
}

std::vector<ClaimParam> claimParams() {
  std::vector<ClaimParam> params;
  for (const auto kind : {TransportKind::Gm, TransportKind::Portals,
                          TransportKind::ProgressThread, TransportKind::Rdma})
    for (const Bytes bytes : {8_KB, 100_KB}) params.push_back({kind, bytes});
  return params;
}

INSTANTIATE_TEST_SUITE_P(Stacks, ReceiveClaimDeathTest,
                         ::testing::ValuesIn(claimParams()),
                         [](const auto& suiteInfo) {
                           const ClaimParam& p = suiteInfo.param;
                           return std::string(transportKindName(p.kind)) +
                                  (p.bytes > 16_KB ? "_rendezvous" : "_eager");
                         });

}  // namespace
}  // namespace comb::backend
