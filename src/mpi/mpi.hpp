// MiniMPI: the MPI subset COMB runs on, implemented from scratch over a
// transport::Endpoint.
//
// One Mpi instance per simulated process. All entry points are coroutines
// because every MPI call costs host CPU time (charged by the endpoint) —
// precisely the effect COMB measures.
//
// Supported: non-blocking point-to-point with (source, tag, comm) matching
// including wildcards and the non-overtaking rule; Test/Wait/Testsome/
// Waitall; blocking Send/Recv; Iprobe; Cancel; Barrier/Bcast/Reduce/
// Allreduce/Gather/Allgather; Comm dup/split.
//
// Progress rule: like most real MPI implementations over OS-bypass
// transports (the paper §4.3 calls this out as a violation of the MPI
// progress rule), a GM-backed MiniMPI only progresses rendezvous traffic
// inside library calls. A Portals-backed MiniMPI progresses autonomously.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/latency_recorder.hpp"
#include "common/units.hpp"
#include "mpi/comm.hpp"
#include "mpi/request.hpp"
#include "mpi/types.hpp"
#include "sim/shard_context.hpp"
#include "sim/task.hpp"
#include "transport/endpoint.hpp"

namespace comb::mpi {

class Mpi {
 public:
  /// `worldRank` must equal the endpoint's fabric node id.
  Mpi(sim::ShardContext& sim, transport::Endpoint& ep, Rank worldRank,
      int worldSize);
  Mpi(const Mpi&) = delete;
  Mpi& operator=(const Mpi&) = delete;

  Rank rank() const { return world_.rank(); }
  int size() const { return world_.size(); }
  const Comm& world() const { return world_; }
  transport::Endpoint& endpoint() { return ep_; }

  // --- non-blocking point-to-point --------------------------------------
  /// Post a send of `bytes` to `dst` (comm rank). `data` optionally
  /// carries real bytes (copied out immediately, MPI buffer semantics).
  sim::Task<Request> isend(const Comm& comm, Rank dst, Tag tag, Bytes bytes,
                           std::span<const std::byte> data = {});
  /// Post a receive. `dstBuf` (optional) receives the payload at
  /// completion. `src` may be kAnySource, `tag` may be kAnyTag.
  sim::Task<Request> irecv(const Comm& comm, Rank src, Tag tag,
                           Bytes maxBytes, std::span<std::byte> dstBuf = {});

  // --- completion --------------------------------------------------------
  /// One progress call + completion check. On true the request is freed
  /// and `req` invalidated.
  sim::Task<bool> test(Request& req, Status* status = nullptr);
  /// Block (busy-wait semantics) until complete; frees the request.
  sim::Task<void> wait(Request& req, Status* status = nullptr);
  /// One progress call; returns indices of requests that completed (those
  /// are freed and invalidated in place). Skips invalid entries.
  sim::Task<std::vector<std::size_t>> testsome(
      std::span<Request> reqs, std::vector<Status>* statuses = nullptr);
  /// Block until all valid requests complete; frees them.
  sim::Task<void> waitall(std::span<Request> reqs);
  /// Block until at least one valid request completes; frees exactly that
  /// one (lowest index among the completed) and returns its index.
  sim::Task<std::size_t> waitany(std::span<Request> reqs,
                                 Status* status = nullptr);

  /// Non-advancing completion check: no progress call, no CPU cost.
  /// (Used by tests and internal assertions, not part of MPI semantics.)
  bool peekDone(Request req) const;

  /// One bare library progress call (the paper §4.3 inserts exactly this —
  /// an MPI_Test with no interesting request — into the PWW work phase).
  sim::Task<void> progressOnce();

  // --- blocking convenience ----------------------------------------------
  sim::Task<void> send(const Comm& comm, Rank dst, Tag tag, Bytes bytes,
                       std::span<const std::byte> data = {});
  sim::Task<void> recv(const Comm& comm, Rank src, Tag tag, Bytes maxBytes,
                       std::span<std::byte> dstBuf = {},
                       Status* status = nullptr);
  /// Combined send+receive (MPI_Sendrecv): posts both, waits for both —
  /// deadlock-free for exchange patterns.
  sim::Task<void> sendrecv(const Comm& comm, Rank dst, Tag sendTag,
                           Bytes sendBytes, std::span<const std::byte> sendBuf,
                           Rank src, Tag recvTag, Bytes recvMaxBytes,
                           std::span<std::byte> recvBuf,
                           Status* status = nullptr);

  // --- probe / cancel ------------------------------------------------------
  sim::Task<bool> iprobe(const Comm& comm, Rank src, Tag tag,
                         Status* status = nullptr);
  /// Cancel a posted receive. True on success (request freed); false if
  /// it already matched (complete it with test/wait instead).
  sim::Task<bool> cancel(Request& req);

  // --- collectives (see collectives.cpp) ----------------------------------
  sim::Task<void> barrier(const Comm& comm);
  sim::Task<void> bcast(const Comm& comm, Rank root, std::span<std::byte> buf);
  sim::Task<void> reduceSum(const Comm& comm, Rank root,
                            std::span<const double> in,
                            std::span<double> out);
  sim::Task<void> allreduceSum(const Comm& comm, std::span<const double> in,
                               std::span<double> out);
  sim::Task<void> gather(const Comm& comm, Rank root,
                         std::span<const std::byte> in,
                         std::span<std::byte> out);
  sim::Task<void> allgather(const Comm& comm, std::span<const std::byte> in,
                            std::span<std::byte> out);
  sim::Task<Comm> commDup(const Comm& comm);
  /// Collective. Processes with equal `color` form a new communicator,
  /// ranked by (key, parent rank).
  sim::Task<Comm> commSplit(const Comm& comm, int color, int key);

  // --- statistics ---------------------------------------------------------
  std::uint64_t sendsPosted() const { return sendsPosted_; }
  std::uint64_t recvsPosted() const { return recvsPosted_; }
  Bytes bytesSent() const { return bytesSent_; }
  Bytes bytesReceived() const { return bytesReceived_; }
  std::size_t pendingRequests() const { return states_.size(); }

  // --- tail-latency observability -----------------------------------------
  /// While a phase is active, per-message completion latencies are also
  /// recorded into `mpi.n<rank>.{send,recv}_latency.<phase>` recorders
  /// (registered on a phase's first begin and cached per label, so later
  /// begins do no name building or lookup; recording itself stays
  /// allocation-free). Driven by SimProc::phaseBegin/End.
  void beginPhase(std::string_view phase);
  void endPhase();

 private:
  enum class Kind { Send, Recv };
  struct ReqState {
    Kind kind = Kind::Send;
    bool done = false;
    Status status;
    std::span<std::byte> userDst;
    /// Post time; completion latency = now - postedAt.
    double postedAt = 0;
  };

  void onTxDone(std::uint64_t handle);
  void onRxDone(std::uint64_t handle, const Status& st,
                const transport::DataBuffer& data);
  ReqState& stateOf(Request req);
  void freeRequest(Request& req, Status* statusOut);

  sim::ShardContext& sim_;
  transport::Endpoint& ep_;
  /// Per-rank MPI call counters, cached at construction.
  struct CallCounters {
    metrics::Counter& isend;
    metrics::Counter& irecv;
    metrics::Counter& test;
    metrics::Counter& wait;
    metrics::Counter& progress;
  } counters_;
  /// Per-message completion-latency distributions (post → completion),
  /// cached at construction like the call counters.
  struct LatencyRecorders {
    LatencyRecorder& send;
    LatencyRecorder& recv;
  } latency_;
  /// Extra per-phase recorders, active between beginPhase/endPhase.
  LatencyRecorder* phaseSend_ = nullptr;
  LatencyRecorder* phaseRecv_ = nullptr;
  /// Every phase's recorder pair, registered on the phase's first begin.
  struct PhaseRecorders {
    std::string label;
    LatencyRecorder* send;
    LatencyRecorder* recv;
  };
  std::vector<PhaseRecorders> phases_;
  Comm world_;
  std::unordered_map<std::uint64_t, ReqState> states_;
  std::uint64_t nextReq_ = 1;
  CommId nextCommId_ = 1;

  std::uint64_t sendsPosted_ = 0;
  std::uint64_t recvsPosted_ = 0;
  Bytes bytesSent_ = 0;
  Bytes bytesReceived_ = 0;
};

}  // namespace comb::mpi
