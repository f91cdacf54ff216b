// Edge cases across the MPI layer and every stack's protocol state machine:
// waitany/sendrecv, cancel racing a rendezvous, crossing traffic on many
// nodes, kernel unexpected-buffer accounting.
#include <gtest/gtest.h>

#include <vector>

#include "backend/machine.hpp"
#include "backend/sim_cluster.hpp"
#include "common/units.hpp"
#include "mpi/mpi.hpp"
#include "mpi/stack_params.hpp"

namespace comb::backend {
namespace {

using namespace comb::units;
using mpi::Request;
using mpi::Status;
using sim::Task;

class EdgeTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  MachineConfig config() const {
    return stackMachine(GetParam());
  }
};

TEST_P(EdgeTest, WaitanyReturnsFirstCompleted) {
  SimCluster cluster(config(), 2);
  std::size_t firstIdx = 99;
  auto receiver = [](SimProc& p, std::size_t& idx) -> Task<void> {
    // Post two receives; the peer sends only tag 21 (index 1) first.
    std::vector<Request> reqs;
    reqs.push_back(co_await p.mpi().irecv(p.mpi().world(), 1, 20, 1_KB));
    reqs.push_back(co_await p.mpi().irecv(p.mpi().world(), 1, 21, 1_KB));
    Status st;
    idx = co_await p.mpi().waitany(reqs, &st);
    EXPECT_EQ(st.tag, 21);
    EXPECT_FALSE(reqs[1].valid());
    EXPECT_TRUE(reqs[0].valid());
    // Complete the other one too.
    co_await p.mpi().wait(reqs[0]);
  };
  auto sender = [](SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 0, 21, 1_KB);
    co_await p.simulator().delay(20_ms);
    co_await p.mpi().send(p.mpi().world(), 0, 20, 1_KB);
  };
  cluster.launch(0, receiver(cluster.proc(0), firstIdx));
  cluster.launch(1, sender(cluster.proc(1)));
  cluster.run();
  EXPECT_EQ(firstIdx, 1u);
}

TEST_P(EdgeTest, SendrecvExchange) {
  SimCluster cluster(config(), 2);
  std::vector<int> got(2, -1);
  auto proc = [](SimProc& p, int& out) -> Task<void> {
    const int peer = 1 - p.rank();
    const int mine = 100 + p.rank();
    co_await p.mpi().sendrecv(
        p.mpi().world(), peer, 7, sizeof(int),
        std::as_bytes(std::span<const int>(&mine, 1)), peer, 7, sizeof(int),
        std::as_writable_bytes(std::span<int>(&out, 1)));
  };
  cluster.launch(0, proc(cluster.proc(0), got[0]));
  cluster.launch(1, proc(cluster.proc(1), got[1]));
  cluster.run();
  EXPECT_EQ(got[0], 101);
  EXPECT_EQ(got[1], 100);
}

TEST_P(EdgeTest, CancelRacesArrivingRendezvous) {
  // The receive is posted, the peer's large send is in flight, and the
  // receiver cancels. Either the cancel wins (the message must then be
  // receivable by a new receive as unexpected) or it loses (the request
  // completes normally) — but nothing may be lost or duplicated.
  SimCluster cluster(config(), 2);
  bool cancelWon = false;
  std::vector<std::byte> rx(100_KB);
  auto receiver = [](SimProc& p, bool& won,
                     std::vector<std::byte>& buf) -> Task<void> {
    Request r = co_await p.mpi().irecv(p.mpi().world(), 1, 3, 100_KB, buf);
    co_await p.simulator().delay(200_us);  // message partially in flight
    won = co_await p.mpi().cancel(r);
    if (won) {
      // Message must still be deliverable via a fresh receive.
      co_await p.mpi().recv(p.mpi().world(), 1, 3, 100_KB, buf);
    } else {
      co_await p.mpi().wait(r);
    }
  };
  auto sender = [](SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 0, 3, 100_KB);
  };
  cluster.launch(0, receiver(cluster.proc(0), cancelWon, rx));
  cluster.launch(1, sender(cluster.proc(1)));
  cluster.run();
  EXPECT_EQ(cluster.mpi(0).pendingRequests(), 0u);
  EXPECT_EQ(cluster.mpi(0).bytesReceived(), 100_KB);  // exactly once
}

TEST_P(EdgeTest, CrossingTrafficSixNodes) {
  // Every node sends to every other node simultaneously; all traffic
  // crosses one switch. Conservation: every byte sent is received.
  constexpr int kNodes = 6;
  constexpr Bytes kBytes = 30_KB;
  SimCluster cluster(config(), kNodes);
  auto proc = [](SimProc& p, int nodes, Bytes bytes) -> Task<void> {
    std::vector<Request> reqs;
    for (int r = 0; r < nodes; ++r) {
      if (r == p.rank()) continue;
      reqs.push_back(co_await p.mpi().irecv(p.mpi().world(), r, 1, bytes));
    }
    for (int r = 0; r < nodes; ++r) {
      if (r == p.rank()) continue;
      reqs.push_back(co_await p.mpi().isend(p.mpi().world(), r, 1, bytes));
    }
    co_await p.mpi().waitall(reqs);
  };
  for (int r = 0; r < kNodes; ++r)
    cluster.launch(r, proc(cluster.proc(r), kNodes, kBytes));
  cluster.run();
  Bytes sent = 0, received = 0;
  for (int r = 0; r < kNodes; ++r) {
    sent += cluster.mpi(r).bytesSent();
    received += cluster.mpi(r).bytesReceived();
  }
  EXPECT_EQ(sent, received);
  EXPECT_EQ(sent, static_cast<Bytes>(kNodes) * (kNodes - 1) * kBytes);
}

TEST_P(EdgeTest, ZeroByteMessages) {
  SimCluster cluster(config(), 2);
  Status st;
  auto sender = [](SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 4, 0);
  };
  auto receiver = [](SimProc& p, Status& out) -> Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 4, 0, {}, &out);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), st));
  cluster.run();
  EXPECT_EQ(st.bytes, 0u);
  EXPECT_EQ(st.tag, 4);
}

TEST_P(EdgeTest, ManySmallUnexpectedThenDrain) {
  // 32 unexpected messages pile up in the receiver's buffers, then a
  // burst of receives drains them in order.
  SimCluster cluster(config(), 2);
  std::vector<int> got;
  auto sender = [](SimProc& p) -> Task<void> {
    for (int i = 0; i < 32; ++i)
      co_await p.mpi().send(
          p.mpi().world(), 1, 5, sizeof(int),
          std::as_bytes(std::span<const int>(&i, 1)));
  };
  auto receiver = [](SimProc& p, std::vector<int>& out) -> Task<void> {
    co_await p.simulator().delay(100_ms);  // everything has arrived
    for (int i = 0; i < 32; ++i) {
      int v = -1;
      co_await p.mpi().recv(p.mpi().world(), 0, 5, sizeof(int),
                            std::as_writable_bytes(std::span<int>(&v, 1)));
      out.push_back(v);
    }
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), got));
  cluster.run();
  ASSERT_EQ(got.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST_P(EdgeTest, InterleavedTagsManyRequests) {
  // 3 tags x 8 messages, receives posted in a shuffled but per-tag-FIFO
  // order before anything is sent.
  SimCluster cluster(config(), 2);
  std::vector<std::vector<int>> got(3);
  auto receiver = [](SimProc& p,
                     std::vector<std::vector<int>>& out) -> Task<void> {
    struct Slot {
      Request req;
      int tag;
      int value = -1;
    };
    std::vector<std::unique_ptr<Slot>> slots;
    for (int i = 0; i < 8; ++i) {
      for (int tag = 0; tag < 3; ++tag) {
        auto slot = std::make_unique<Slot>();
        slot->tag = tag;
        slot->req = co_await p.mpi().irecv(
            p.mpi().world(), 1, tag, sizeof(int),
            std::as_writable_bytes(std::span<int>(&slot->value, 1)));
        slots.push_back(std::move(slot));
      }
    }
    std::vector<Request> reqs;
    for (auto& s : slots) reqs.push_back(s->req);
    co_await p.mpi().waitall(reqs);
    for (auto& s : slots) out[static_cast<size_t>(s->tag)].push_back(s->value);
  };
  auto sender = [](SimProc& p) -> Task<void> {
    // Send tag-major: all of tag 0, then 1, then 2.
    for (int tag = 0; tag < 3; ++tag)
      for (int i = 0; i < 8; ++i) {
        const int v = tag * 100 + i;
        co_await p.mpi().send(p.mpi().world(), 0, tag, sizeof(int),
                              std::as_bytes(std::span<const int>(&v, 1)));
      }
  };
  cluster.launch(0, receiver(cluster.proc(0), got));
  cluster.launch(1, sender(cluster.proc(1)));
  cluster.run();
  for (int tag = 0; tag < 3; ++tag) {
    ASSERT_EQ(got[static_cast<size_t>(tag)].size(), 8u);
    for (int i = 0; i < 8; ++i)
      EXPECT_EQ(got[static_cast<size_t>(tag)][static_cast<size_t>(i)],
                tag * 100 + i)
          << "tag " << tag << " msg " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, EdgeTest,
                         ::testing::ValuesIn(stackKinds()),
                         [](const auto& suiteInfo) {
                           return std::string(transportKindName(suiteInfo.param));
                         });

}  // namespace
}  // namespace comb::backend
