// End-to-end MiniMPI tests, parameterized over every stack row. Every
// semantic here must hold identically on every stack — the transports
// differ in timing and offload, never in MPI semantics.
#include <gtest/gtest.h>

#include <cstring>
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
using mpi::kAnySource;
using mpi::kAnyTag;
using mpi::Request;
using mpi::Status;
using sim::Task;

std::vector<std::byte> patternBytes(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>((seed + i * 37) & 0xff);
  return v;
}

class MiniMpiTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  MachineConfig config() const {
    return stackMachine(GetParam());
  }
};

TEST_P(MiniMpiTest, BlockingSendRecvDataIntegrity) {
  SimCluster cluster(config(), 2);
  const auto payload = patternBytes(1000, 3);
  std::vector<std::byte> rxBuf(1000);

  auto sender = [](SimProc& p, const std::vector<std::byte>& data) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 5, data.size(), data);
  };
  auto receiver = [](SimProc& p, std::vector<std::byte>& buf) -> Task<void> {
    Status st;
    co_await p.mpi().recv(p.mpi().world(), 0, 5, buf.size(), buf, &st);
    EXPECT_EQ(st.source, 0);
    EXPECT_EQ(st.tag, 5);
    EXPECT_EQ(st.bytes, buf.size());
  };
  cluster.launch(0, sender(cluster.proc(0), payload));
  cluster.launch(1, receiver(cluster.proc(1), rxBuf));
  cluster.run();
  EXPECT_EQ(rxBuf, payload);
}

TEST_P(MiniMpiTest, LargeMessageIntegrity) {
  // 300 KB: rendezvous path on GM, 75 fragments on both.
  SimCluster cluster(config(), 2);
  const auto payload = patternBytes(300_KB, 9);
  std::vector<std::byte> rxBuf(300_KB);

  auto sender = [](SimProc& p, const std::vector<std::byte>& d) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 1, d.size(), d);
  };
  auto receiver = [](SimProc& p, std::vector<std::byte>& b) -> Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 1, b.size(), b);
  };
  cluster.launch(0, sender(cluster.proc(0), payload));
  cluster.launch(1, receiver(cluster.proc(1), rxBuf));
  cluster.run();
  EXPECT_EQ(rxBuf, payload);
}

TEST_P(MiniMpiTest, SizeOnlyMessagesMoveNoData) {
  SimCluster cluster(config(), 2);
  Bytes gotBytes = 0;
  auto sender = [](SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 2, 50_KB);
  };
  auto receiver = [](SimProc& p, Bytes& out) -> Task<void> {
    Status st;
    co_await p.mpi().recv(p.mpi().world(), 0, 2, 50_KB, {}, &st);
    out = st.bytes;
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), gotBytes));
  cluster.run();
  EXPECT_EQ(gotBytes, 50_KB);
}

TEST_P(MiniMpiTest, IsendIrecvTestLoop) {
  SimCluster cluster(config(), 2);
  bool completed = false;
  auto sender = [](SimProc& p) -> Task<void> {
    Request r = co_await p.mpi().isend(p.mpi().world(), 1, 3, 4_KB);
    co_await p.mpi().wait(r);
  };
  auto receiver = [](SimProc& p, bool& done) -> Task<void> {
    Request r = co_await p.mpi().irecv(p.mpi().world(), 0, 3, 4_KB);
    int spins = 0;
    while (!co_await p.mpi().test(r)) {
      ++spins;
      co_await p.work(1000);  // 4 us of work per spin
      if (spins >= 100000) {  // ASSERT_* returns; not allowed in coroutines
        ADD_FAILURE() << "test loop never completed";
        co_return;
      }
    }
    EXPECT_FALSE(r.valid());  // freed by successful test
    done = true;
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), completed));
  cluster.run();
  EXPECT_TRUE(completed);
}

TEST_P(MiniMpiTest, WildcardSourceAndTag) {
  SimCluster cluster(config(), 3);
  Status st;
  auto sender = [](SimProc& p) -> Task<void> {
    co_await p.simulator().delay(1_ms);
    co_await p.mpi().send(p.mpi().world(), 2, 77, 1_KB);
  };
  auto idle = [](SimProc&) -> Task<void> { co_return; };
  auto receiver = [](SimProc& p, Status& out) -> Task<void> {
    co_await p.mpi().recv(p.mpi().world(), kAnySource, kAnyTag, 1_KB, {},
                          &out);
  };
  cluster.launch(0, idle(cluster.proc(0)));
  cluster.launch(1, sender(cluster.proc(1)));
  cluster.launch(2, receiver(cluster.proc(2), st));
  cluster.run();
  EXPECT_EQ(st.source, 1);
  EXPECT_EQ(st.tag, 77);
  EXPECT_EQ(st.bytes, 1_KB);
}

TEST_P(MiniMpiTest, NonOvertakingSameSenderSameTag) {
  SimCluster cluster(config(), 2);
  std::vector<std::byte> first(8), second(8);
  auto sender = [](SimProc& p) -> Task<void> {
    const auto a = patternBytes(8, 1);
    const auto b = patternBytes(8, 2);
    Request r1 = co_await p.mpi().isend(p.mpi().world(), 1, 4, 8, a);
    Request r2 = co_await p.mpi().isend(p.mpi().world(), 1, 4, 8, b);
    co_await p.mpi().wait(r1);
    co_await p.mpi().wait(r2);
  };
  auto receiver = [](SimProc& p, std::vector<std::byte>& f,
                     std::vector<std::byte>& s) -> Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 4, 8, f);
    co_await p.mpi().recv(p.mpi().world(), 0, 4, 8, s);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), first, second));
  cluster.run();
  EXPECT_EQ(first, patternBytes(8, 1));
  EXPECT_EQ(second, patternBytes(8, 2));
}

TEST_P(MiniMpiTest, NonOvertakingMixedSizes) {
  // A large (rendezvous on GM) send followed by a small (eager) send with
  // the same envelope must still match receives in send order.
  SimCluster cluster(config(), 2);
  std::vector<std::byte> bigRx(100_KB), smallRx(64);
  auto sender = [](SimProc& p) -> Task<void> {
    const auto big = patternBytes(100_KB, 11);
    const auto small = patternBytes(64, 22);
    Request r1 =
        co_await p.mpi().isend(p.mpi().world(), 1, 6, big.size(), big);
    Request r2 =
        co_await p.mpi().isend(p.mpi().world(), 1, 6, small.size(), small);
    std::vector<Request> rs{r1, r2};
    co_await p.mpi().waitall(rs);
  };
  auto receiver = [](SimProc& p, std::vector<std::byte>& bigOut,
                     std::vector<std::byte>& smallOut) -> Task<void> {
    Status st1, st2;
    co_await p.mpi().recv(p.mpi().world(), 0, 6, 100_KB, bigOut, &st1);
    co_await p.mpi().recv(p.mpi().world(), 0, 6, smallOut.size(), smallOut,
                          &st2);
    EXPECT_EQ(st1.bytes, 100_KB);  // first send first
    EXPECT_EQ(st2.bytes, 64u);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), bigRx, smallRx));
  cluster.run();
  EXPECT_EQ(bigRx, patternBytes(100_KB, 11));
  EXPECT_EQ(std::vector<std::byte>(smallRx.begin(), smallRx.begin() + 64),
            patternBytes(64, 22));
}

TEST_P(MiniMpiTest, UnexpectedMessageClaimedByLateRecv) {
  SimCluster cluster(config(), 2);
  std::vector<std::byte> rx(10_KB);
  auto sender = [](SimProc& p, const std::vector<std::byte>& d) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 8, d.size(), d);
  };
  auto receiver = [](SimProc& p, std::vector<std::byte>& b) -> Task<void> {
    // Give the message ample time to arrive before posting the receive.
    co_await p.simulator().delay(50_ms);
    co_await p.mpi().recv(p.mpi().world(), 0, 8, b.size(), b);
  };
  const auto payload = patternBytes(10_KB, 5);
  cluster.launch(0, sender(cluster.proc(0), payload));
  cluster.launch(1, receiver(cluster.proc(1), rx));
  cluster.run();
  EXPECT_EQ(rx, payload);
}

TEST_P(MiniMpiTest, UnexpectedLargeMessage) {
  SimCluster cluster(config(), 2);
  std::vector<std::byte> rx(200_KB);
  auto sender = [](SimProc& p, const std::vector<std::byte>& d) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 8, d.size(), d);
  };
  auto receiver = [](SimProc& p, std::vector<std::byte>& b) -> Task<void> {
    co_await p.simulator().delay(50_ms);
    co_await p.mpi().recv(p.mpi().world(), 0, 8, b.size(), b);
  };
  const auto payload = patternBytes(200_KB, 6);
  cluster.launch(0, sender(cluster.proc(0), payload));
  cluster.launch(1, receiver(cluster.proc(1), rx));
  cluster.run();
  EXPECT_EQ(rx, payload);
}

TEST_P(MiniMpiTest, PingPongAdvancesTime) {
  SimCluster cluster(config(), 2);
  Time elapsed = 0;
  const int rounds = 10;
  auto zero = [](SimProc& p, int n, Time& out) -> Task<void> {
    const Time t0 = p.wtime();
    for (int i = 0; i < n; ++i) {
      co_await p.mpi().send(p.mpi().world(), 1, 1, 10_KB);
      co_await p.mpi().recv(p.mpi().world(), 1, 2, 10_KB);
    }
    out = p.wtime() - t0;
  };
  auto one = [](SimProc& p, int n) -> Task<void> {
    for (int i = 0; i < n; ++i) {
      co_await p.mpi().recv(p.mpi().world(), 0, 1, 10_KB);
      co_await p.mpi().send(p.mpi().world(), 0, 2, 10_KB);
    }
  };
  cluster.launch(0, zero(cluster.proc(0), rounds, elapsed));
  cluster.launch(1, one(cluster.proc(1), rounds));
  cluster.run();
  // 20 one-way 10 KB trips: at least the pure wire time.
  const Time minWire = 2.0 * rounds * 10240.0 / 90e6;
  EXPECT_GT(elapsed, minWire);
  EXPECT_LT(elapsed, 1.0);  // sanity: well under a second
}

TEST_P(MiniMpiTest, TestsomeReapsBatches) {
  SimCluster cluster(config(), 2);
  int reaped = 0;
  auto sender = [](SimProc& p) -> Task<void> {
    for (int i = 0; i < 4; ++i)
      co_await p.mpi().send(p.mpi().world(), 1, 10 + i, 2_KB);
  };
  auto receiver = [](SimProc& p, int& count) -> Task<void> {
    std::vector<Request> reqs;
    for (int i = 0; i < 4; ++i)
      reqs.push_back(co_await p.mpi().irecv(p.mpi().world(), 0, 10 + i, 2_KB));
    std::vector<Status> sts;
    int spins = 0;
    while (count < 4) {
      auto done = co_await p.mpi().testsome(reqs, &sts);
      count += static_cast<int>(done.size());
      co_await p.work(500);
      if (++spins >= 100000) {
        ADD_FAILURE() << "testsome loop never completed";
        co_return;
      }
    }
    for (const auto& r : reqs) EXPECT_FALSE(r.valid());
    EXPECT_EQ(sts.size(), 4u);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), reaped));
  cluster.run();
  EXPECT_EQ(reaped, 4);
}

TEST_P(MiniMpiTest, WaitallBothDirections) {
  SimCluster cluster(config(), 2);
  auto proc = [](SimProc& p, int peer) -> Task<void> {
    std::vector<Request> reqs;
    for (int i = 0; i < 3; ++i)
      reqs.push_back(
          co_await p.mpi().irecv(p.mpi().world(), peer, 20 + i, 30_KB));
    for (int i = 0; i < 3; ++i)
      reqs.push_back(
          co_await p.mpi().isend(p.mpi().world(), peer, 20 + i, 30_KB));
    co_await p.mpi().waitall(reqs);
    EXPECT_EQ(p.mpi().pendingRequests(), 0u);
  };
  cluster.launch(0, proc(cluster.proc(0), 1));
  cluster.launch(1, proc(cluster.proc(1), 0));
  cluster.run();
}

TEST_P(MiniMpiTest, IprobeSeesUnexpected) {
  SimCluster cluster(config(), 2);
  bool probed = false;
  Status st;
  auto sender = [](SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 30, 1_KB);
  };
  auto receiver = [](SimProc& p, bool& hit, Status& out) -> Task<void> {
    co_await p.simulator().delay(20_ms);
    hit = co_await p.mpi().iprobe(p.mpi().world(), kAnySource, kAnyTag, &out);
    // Consume it so nothing is left dangling.
    co_await p.mpi().recv(p.mpi().world(), 0, 30, 1_KB);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), probed, st));
  cluster.run();
  EXPECT_TRUE(probed);
  EXPECT_EQ(st.source, 0);
  EXPECT_EQ(st.tag, 30);
}

TEST_P(MiniMpiTest, IprobeFalseWhenNothingSent) {
  SimCluster cluster(config(), 2);
  bool probed = true;
  auto receiver = [](SimProc& p, bool& hit) -> Task<void> {
    hit = co_await p.mpi().iprobe(p.mpi().world(), kAnySource, kAnyTag);
  };
  auto idle = [](SimProc&) -> Task<void> { co_return; };
  cluster.launch(0, idle(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), probed));
  cluster.run();
  EXPECT_FALSE(probed);
}

TEST_P(MiniMpiTest, CancelUnmatchedRecvSucceeds) {
  SimCluster cluster(config(), 2);
  bool cancelled = false;
  auto receiver = [](SimProc& p, bool& ok) -> Task<void> {
    Request r = co_await p.mpi().irecv(p.mpi().world(), 0, 40, 1_KB);
    ok = co_await p.mpi().cancel(r);
    EXPECT_FALSE(r.valid());
    EXPECT_EQ(p.mpi().pendingRequests(), 0u);
  };
  auto idle = [](SimProc&) -> Task<void> { co_return; };
  cluster.launch(0, idle(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), cancelled));
  cluster.run();
  EXPECT_TRUE(cancelled);
}

TEST_P(MiniMpiTest, CancelAfterCompletionFails) {
  SimCluster cluster(config(), 2);
  bool cancelResult = true;
  auto sender = [](SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 41, 1_KB);
  };
  auto receiver = [](SimProc& p, bool& res) -> Task<void> {
    Request r = co_await p.mpi().irecv(p.mpi().world(), 0, 41, 1_KB);
    co_await p.simulator().delay(50_ms);  // message certainly arrived
    co_await p.mpi().progressOnce();
    res = co_await p.mpi().cancel(r);
    EXPECT_FALSE(res);
    co_await p.mpi().wait(r);  // still completable
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1), cancelResult));
  cluster.run();
  EXPECT_FALSE(cancelResult);
}

TEST_P(MiniMpiTest, StatsCount) {
  SimCluster cluster(config(), 2);
  auto sender = [](SimProc& p) -> Task<void> {
    co_await p.mpi().send(p.mpi().world(), 1, 50, 10_KB);
    co_await p.mpi().send(p.mpi().world(), 1, 50, 10_KB);
  };
  auto receiver = [](SimProc& p) -> Task<void> {
    co_await p.mpi().recv(p.mpi().world(), 0, 50, 10_KB);
    co_await p.mpi().recv(p.mpi().world(), 0, 50, 10_KB);
  };
  cluster.launch(0, sender(cluster.proc(0)));
  cluster.launch(1, receiver(cluster.proc(1)));
  cluster.run();
  EXPECT_EQ(cluster.mpi(0).sendsPosted(), 2u);
  EXPECT_EQ(cluster.mpi(0).bytesSent(), 2 * 10_KB);
  EXPECT_EQ(cluster.mpi(1).recvsPosted(), 2u);
  EXPECT_EQ(cluster.mpi(1).bytesReceived(), 2 * 10_KB);
}

INSTANTIATE_TEST_SUITE_P(Transports, MiniMpiTest,
                         ::testing::ValuesIn(stackKinds()),
                         [](const auto& paramInfo) {
                           return std::string(
                               transportKindName(paramInfo.param));
                         });

}  // namespace
}  // namespace comb::backend
