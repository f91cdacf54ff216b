// Collective operations over every stack row and several node counts.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "common/units.hpp"
#include "mpi/mpi.hpp"
#include "mpi/stack_params.hpp"

namespace comb::backend {
namespace {

using namespace comb::units;
using mpi::Comm;
using sim::Task;

struct Param {
  TransportKind kind;
  int nodes;
};

class CollectivesTest : public ::testing::TestWithParam<Param> {
 protected:
  MachineConfig config() const {
    return stackMachine(GetParam().kind);
  }
  int nodes() const { return GetParam().nodes; }
};

TEST_P(CollectivesTest, BarrierSynchronizes) {
  SimCluster cluster(config(), nodes());
  std::vector<Time> before(static_cast<size_t>(nodes())),
      after(static_cast<size_t>(nodes()));
  auto proc = [](SimProc& p, Time& b, Time& a) -> Task<void> {
    // Ranks arrive at wildly different times; all must leave together
    // (no earlier than the last arrival).
    co_await p.simulator().delay(static_cast<Time>(p.rank()) * 5_ms);
    b = p.wtime();
    co_await p.mpi().barrier(p.mpi().world());
    a = p.wtime();
  };
  for (int r = 0; r < nodes(); ++r)
    cluster.launch(r, proc(cluster.proc(r), before[static_cast<size_t>(r)],
                           after[static_cast<size_t>(r)]));
  cluster.run();
  const Time lastArrival =
      *std::max_element(before.begin(), before.end());
  for (int r = 0; r < nodes(); ++r)
    EXPECT_GE(after[static_cast<size_t>(r)], lastArrival) << "rank " << r;
}

TEST_P(CollectivesTest, BcastDeliversToAll) {
  SimCluster cluster(config(), nodes());
  std::vector<std::vector<std::byte>> bufs(static_cast<size_t>(nodes()),
                                           std::vector<std::byte>(256));
  const int root = nodes() - 1;
  auto proc = [](SimProc& p, int rt, std::vector<std::byte>& buf) -> Task<void> {
    if (p.rank() == rt)
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::byte>(i & 0xff);
    co_await p.mpi().bcast(p.mpi().world(), rt, buf);
  };
  for (int r = 0; r < nodes(); ++r)
    cluster.launch(r, proc(cluster.proc(r), root, bufs[static_cast<size_t>(r)]));
  cluster.run();
  for (int r = 0; r < nodes(); ++r)
    for (std::size_t i = 0; i < 256; ++i)
      ASSERT_EQ(bufs[static_cast<size_t>(r)][i],
                static_cast<std::byte>(i & 0xff))
          << "rank " << r << " byte " << i;
}

TEST_P(CollectivesTest, ReduceSumAtRoot) {
  SimCluster cluster(config(), nodes());
  std::vector<double> result(4, -1.0);
  auto proc = [](SimProc& p, std::vector<double>& out) -> Task<void> {
    // Rank r contributes {r, 2r, 3r, 4r}.
    std::vector<double> in{1.0 * p.rank(), 2.0 * p.rank(), 3.0 * p.rank(),
                           4.0 * p.rank()};
    if (p.rank() == 0)
      co_await p.mpi().reduceSum(p.mpi().world(), 0, in, out);
    else
      co_await p.mpi().reduceSum(p.mpi().world(), 0, in, {});
  };
  for (int r = 0; r < nodes(); ++r)
    cluster.launch(r, proc(cluster.proc(r), result));
  cluster.run();
  const double n = nodes();
  const double sumRanks = n * (n - 1) / 2.0;
  EXPECT_DOUBLE_EQ(result[0], sumRanks);
  EXPECT_DOUBLE_EQ(result[1], 2 * sumRanks);
  EXPECT_DOUBLE_EQ(result[2], 3 * sumRanks);
  EXPECT_DOUBLE_EQ(result[3], 4 * sumRanks);
}

TEST_P(CollectivesTest, AllreduceEveryoneGetsSum) {
  SimCluster cluster(config(), nodes());
  std::vector<std::vector<double>> results(
      static_cast<size_t>(nodes()), std::vector<double>(2, -1.0));
  auto proc = [](SimProc& p, std::vector<double>& out) -> Task<void> {
    std::vector<double> in{1.0, static_cast<double>(p.rank())};
    co_await p.mpi().allreduceSum(p.mpi().world(), in, out);
  };
  for (int r = 0; r < nodes(); ++r)
    cluster.launch(r, proc(cluster.proc(r), results[static_cast<size_t>(r)]));
  cluster.run();
  const double n = nodes();
  for (int r = 0; r < nodes(); ++r) {
    EXPECT_DOUBLE_EQ(results[static_cast<size_t>(r)][0], n) << "rank " << r;
    EXPECT_DOUBLE_EQ(results[static_cast<size_t>(r)][1], n * (n - 1) / 2.0);
  }
}

TEST_P(CollectivesTest, GatherCollectsInRankOrder) {
  SimCluster cluster(config(), nodes());
  std::vector<std::byte> gathered(static_cast<size_t>(nodes()) * 4);
  auto proc = [](SimProc& p, std::vector<std::byte>& out) -> Task<void> {
    std::vector<std::byte> mine(4, static_cast<std::byte>(p.rank() + 1));
    if (p.rank() == 0)
      co_await p.mpi().gather(p.mpi().world(), 0, mine, out);
    else
      co_await p.mpi().gather(p.mpi().world(), 0, mine, {});
  };
  for (int r = 0; r < nodes(); ++r)
    cluster.launch(r, proc(cluster.proc(r), gathered));
  cluster.run();
  for (int r = 0; r < nodes(); ++r)
    for (int i = 0; i < 4; ++i)
      ASSERT_EQ(gathered[static_cast<size_t>(r * 4 + i)],
                static_cast<std::byte>(r + 1));
}

TEST_P(CollectivesTest, AllgatherEveryoneHasEverything) {
  SimCluster cluster(config(), nodes());
  std::vector<std::vector<std::byte>> outs(
      static_cast<size_t>(nodes()),
      std::vector<std::byte>(static_cast<size_t>(nodes()) * 2));
  auto proc = [](SimProc& p, std::vector<std::byte>& out) -> Task<void> {
    std::vector<std::byte> mine(2, static_cast<std::byte>(0x40 + p.rank()));
    co_await p.mpi().allgather(p.mpi().world(), mine, out);
  };
  for (int r = 0; r < nodes(); ++r)
    cluster.launch(r, proc(cluster.proc(r), outs[static_cast<size_t>(r)]));
  cluster.run();
  for (int r = 0; r < nodes(); ++r)
    for (int s = 0; s < nodes(); ++s)
      ASSERT_EQ(outs[static_cast<size_t>(r)][static_cast<size_t>(s * 2)],
                static_cast<std::byte>(0x40 + s))
          << "rank " << r << " slot " << s;
}

TEST_P(CollectivesTest, CommSplitEvenOdd) {
  if (nodes() < 2) GTEST_SKIP();
  SimCluster cluster(config(), nodes());
  std::vector<int> newSizes(static_cast<size_t>(nodes()), -1);
  std::vector<int> partnerData(static_cast<size_t>(nodes()), -1);
  auto proc = [](SimProc& p, int& newSize, int& got) -> Task<void> {
    const int color = p.rank() % 2;
    Comm sub = co_await p.mpi().commSplit(p.mpi().world(), color, p.rank());
    newSize = sub.size();
    // Ring exchange within the subcomm: send my world rank to the next
    // member, receive from the previous.
    const int me = sub.rank();
    const int nxt = (me + 1) % sub.size();
    const int prv = (me - 1 + sub.size()) % sub.size();
    const int myWorld = p.rank();
    mpi::Request rx = co_await p.mpi().irecv(
        sub, prv, 1, sizeof(int),
        std::as_writable_bytes(std::span<int>(&got, 1)));
    co_await p.mpi().send(sub, nxt, 1, sizeof(int),
                          std::as_bytes(std::span<const int>(&myWorld, 1)));
    co_await p.mpi().wait(rx);
  };
  for (int r = 0; r < nodes(); ++r)
    cluster.launch(r, proc(cluster.proc(r), newSizes[static_cast<size_t>(r)],
                           partnerData[static_cast<size_t>(r)]));
  cluster.run();
  for (int r = 0; r < nodes(); ++r) {
    const int expectSize = (nodes() + (r % 2 == 0 ? 1 : 0)) / 2;
    EXPECT_EQ(newSizes[static_cast<size_t>(r)], expectSize) << "rank " << r;
    // Received world rank must have the same parity.
    EXPECT_EQ(partnerData[static_cast<size_t>(r)] % 2, r % 2);
  }
}

TEST_P(CollectivesTest, CommDupIsolatesTraffic) {
  if (nodes() < 2) GTEST_SKIP();
  SimCluster cluster(config(), nodes());
  std::vector<int> got(static_cast<size_t>(nodes()), -1);
  auto proc = [](SimProc& p, int& out) -> Task<void> {
    Comm dup = co_await p.mpi().commDup(p.mpi().world());
    if (p.rank() == 0) {
      // Same tag on both comms; receivers must get the right payloads.
      const int a = 111, b = 222;
      co_await p.mpi().send(p.mpi().world(), 1, 9, sizeof(int),
                            std::as_bytes(std::span<const int>(&a, 1)));
      co_await p.mpi().send(dup, 1, 9, sizeof(int),
                            std::as_bytes(std::span<const int>(&b, 1)));
      out = 0;
    } else if (p.rank() == 1) {
      int fromDup = -1;
      // Post the dup receive FIRST; it must not steal the world message.
      mpi::Request rd = co_await p.mpi().irecv(
          dup, 0, 9, sizeof(int),
          std::as_writable_bytes(std::span<int>(&fromDup, 1)));
      int fromWorld = -1;
      co_await p.mpi().recv(
          p.mpi().world(), 0, 9, sizeof(int),
          std::as_writable_bytes(std::span<int>(&fromWorld, 1)));
      co_await p.mpi().wait(rd);
      EXPECT_EQ(fromWorld, 111);
      EXPECT_EQ(fromDup, 222);
      out = 0;
    } else {
      out = 0;
    }
  };
  for (int r = 0; r < nodes(); ++r)
    cluster.launch(r, proc(cluster.proc(r), got[static_cast<size_t>(r)]));
  cluster.run();
  for (int r = 0; r < nodes(); ++r) EXPECT_EQ(got[static_cast<size_t>(r)], 0);
}

INSTANTIATE_TEST_SUITE_P(
    TransportsAndSizes, CollectivesTest,
    ::testing::ValuesIn([] {
      std::vector<Param> params;
      for (const TransportKind kind : stackKinds())
        for (const int nodes : {2, 4, 7}) params.push_back({kind, nodes});
      return params;
    }()),
    [](const auto& suiteInfo) {
      return std::string(transportKindName(suiteInfo.param.kind)) + "_n" +
             std::to_string(suiteInfo.param.nodes);
    });

}  // namespace
}  // namespace comb::backend
