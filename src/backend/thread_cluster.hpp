// Native thread backend: COMB on real OS threads and real wall-clock time.
//
// This is the backend that makes the suite "portable" in the paper's
// sense — the same COMB method templates that run on the simulator run
// here against an in-process shared-memory message layer. The layer
// reuses the exact MatchEngine the simulated transports use and exposes
// the same progress-model dichotomy:
//   * offload = true  — the sender's thread delivers and matches directly
//     into the receiver (progress independent of the receiver's calls:
//     application offload, Portals-like);
//   * offload = false — the sender only drops the message into the
//     receiver's inbox; matching happens when the *receiver* makes a
//     library call (library-driven progress, GM-like).
//
// Timing fidelity is whatever the host gives you (on a single-core CI box
// two busy threads time-slice); correctness and method behaviour are
// exact, which is what the tests assert.
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "backend/immediate.hpp"
#include "common/units.hpp"
#include "mpi/comm.hpp"
#include "mpi/match.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "transport/data.hpp"

namespace comb::backend {

class ThreadCluster;

/// Placeholder result so Immediate<Unit> mirrors sim::Task<void> call
/// sites.
struct Unit {};

/// MiniMPI-compatible API over shared memory. One instance per rank; all
/// methods return Immediate<> so COMB's co_await-based templates work.
class ThreadMpi {
 public:
  ThreadMpi(ThreadCluster& cluster, mpi::Rank rank, int size);

  const mpi::Comm& world() const { return world_; }
  mpi::Rank rank() const { return world_.rank(); }
  int size() const { return world_.size(); }

  Immediate<mpi::Request> isend(const mpi::Comm& comm, mpi::Rank dst,
                                mpi::Tag tag, Bytes bytes,
                                std::span<const std::byte> data = {});
  Immediate<mpi::Request> irecv(const mpi::Comm& comm, mpi::Rank src,
                                mpi::Tag tag, Bytes maxBytes,
                                std::span<std::byte> dstBuf = {});
  Immediate<bool> test(mpi::Request& req, mpi::Status* status = nullptr);
  Immediate<Unit> wait(mpi::Request& req, mpi::Status* status = nullptr);
  Immediate<std::vector<std::size_t>> testsome(
      std::span<mpi::Request> reqs,
      std::vector<mpi::Status>* statuses = nullptr);
  Immediate<Unit> waitall(std::span<mpi::Request> reqs);
  Immediate<Unit> send(const mpi::Comm& comm, mpi::Rank dst, mpi::Tag tag,
                       Bytes bytes, std::span<const std::byte> data = {});
  Immediate<Unit> recv(const mpi::Comm& comm, mpi::Rank src, mpi::Tag tag,
                       Bytes maxBytes, std::span<std::byte> dstBuf = {},
                       mpi::Status* status = nullptr);
  Immediate<bool> iprobe(const mpi::Comm& comm, mpi::Rank src, mpi::Tag tag,
                         mpi::Status* status = nullptr);
  Immediate<bool> cancel(mpi::Request& req);
  Immediate<Unit> barrier(const mpi::Comm& comm);
  Immediate<Unit> progressOnce();

  bool peekDone(mpi::Request req);
  std::size_t pendingRequests();

 private:
  friend class ThreadCluster;
  friend class ThreadProc;  // reads activity_ for waitActivity()

  struct ReqState {
    bool isRecv = false;
    bool done = false;
    mpi::Status status;
    std::span<std::byte> userDst;
  };

  struct InboxMsg {
    mpi::Envelope env;
    Bytes bytes = 0;
    transport::DataBuffer data;
  };

  void progressLocked();  // requires mu_ held
  /// Match an arrival against posted receives, or queue it unexpected.
  void matchLocked(InboxMsg msg);  // requires mu_ held
  void completeRecvLocked(std::uint64_t handle, const mpi::Envelope& env,
                          Bytes bytes, const transport::DataBuffer& data);
  /// Deliver from a (possibly remote) sender thread.
  void acceptMessage(InboxMsg msg, bool senderMatches);

  ThreadCluster& cluster_;
  mpi::Comm world_;

  std::mutex mu_;
  /// Unexpected messages hold their payload inline.
  mpi::MatchEngine<transport::DataBuffer> match_;
  std::deque<InboxMsg> inbox_;  // undelivered raw messages (no-offload mode)
  std::unordered_map<std::uint64_t, ReqState> states_;
  std::uint64_t nextReq_ = 1;

  std::atomic<std::uint64_t> activity_{0};
};

/// Per-rank environment satisfying the COMB backend concept.
class ThreadProc {
 public:
  ThreadProc(ThreadCluster& cluster, ThreadMpi& mpiApi, double secondsPerIter)
      : cluster_(&cluster), mpi_(&mpiApi), spi_(secondsPerIter) {}

  Time wtime() const;
  Immediate<Unit> work(std::uint64_t iters) const;
  double secondsPerIter() const { return spi_; }
  ThreadMpi& mpi() { return *mpi_; }
  int rank() const { return mpi_->rank(); }
  int size() const { return mpi_->size(); }

  std::uint64_t activityVersion() const;
  Immediate<Unit> waitActivity(std::uint64_t seen) const;

  /// Phase markers exist for backend-concept parity with SimProc; the
  /// native backend has no trace log, so they are no-ops.
  void phaseBegin(std::string_view) {}
  void phaseEnd(std::string_view) {}

 private:
  ThreadCluster* cluster_;
  ThreadMpi* mpi_;
  double spi_;
};

class ThreadCluster {
 public:
  /// `offload`: progress model (see file comment). The work loop is
  /// calibrated at construction.
  explicit ThreadCluster(int ranks, bool offload = true);
  ~ThreadCluster();
  ThreadCluster(const ThreadCluster&) = delete;
  ThreadCluster& operator=(const ThreadCluster&) = delete;

  int size() const { return static_cast<int>(ranks_.size()); }
  bool offload() const { return offload_; }
  ThreadMpi& mpi(int rank) { return *ranks_[static_cast<std::size_t>(rank)]; }
  ThreadProc& proc(int rank) {
    return *procs_[static_cast<std::size_t>(rank)];
  }
  double secondsPerIter() const { return secondsPerIter_; }

  /// Run one std::function per rank, each on its own thread; joins all.
  /// Exceptions from any rank are rethrown (first wins).
  void run(const std::vector<std::function<void(ThreadProc&)>>& mains);

  /// Calibrated busy loop (also used by ThreadProc::work).
  static void spin(std::uint64_t iters);

  std::barrier<>& barrierFor() { return *barrier_; }

 private:
  friend class ThreadMpi;

  bool offload_;
  double secondsPerIter_;
  std::vector<std::unique_ptr<ThreadMpi>> ranks_;
  std::vector<std::unique_ptr<ThreadProc>> procs_;
  std::unique_ptr<std::barrier<>> barrier_;
};

}  // namespace comb::backend
