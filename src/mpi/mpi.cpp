#include "mpi/mpi.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "common/string_util.hpp"

namespace comb::mpi {

namespace {

std::vector<Rank> iota(int n) {
  std::vector<Rank> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

metrics::Counter& mpiCounter(sim::ShardContext& sim, Rank rank,
                             const char* call) {
  return sim.metrics().counter(strFormat("mpi.n%d.%s", rank, call));
}

LatencyRecorder& mpiLatency(sim::ShardContext& sim, Rank rank,
                            const char* name) {
  return sim.metrics().latency(strFormat("mpi.n%d.%s", rank, name));
}

}  // namespace

Mpi::Mpi(sim::ShardContext& sim, transport::Endpoint& ep, Rank worldRank,
         int worldSize)
    : sim_(sim), ep_(ep),
      counters_{mpiCounter(sim, worldRank, "isend"),
                mpiCounter(sim, worldRank, "irecv"),
                mpiCounter(sim, worldRank, "test"),
                mpiCounter(sim, worldRank, "wait"),
                mpiCounter(sim, worldRank, "progress")},
      latency_{mpiLatency(sim, worldRank, "send_latency"),
               mpiLatency(sim, worldRank, "recv_latency")},
      world_(Comm(0, iota(worldSize), worldRank)) {
  COMB_REQUIRE(worldRank == ep.nodeId(),
               "world rank must equal the endpoint's node id");
  ep_.setCallbacks(
      [this](std::uint64_t h) { onTxDone(h); },
      [this](std::uint64_t h, const Status& st,
             const transport::DataBuffer& d) { onRxDone(h, st, d); });
}

void Mpi::onTxDone(std::uint64_t handle) {
  const auto it = states_.find(handle);
  COMB_ASSERT(it != states_.end(), "tx completion for unknown request");
  COMB_ASSERT(it->second.kind == Kind::Send, "tx completion for a recv");
  it->second.done = true;
  const auto ticks =
      LatencyRecorder::toTicks(sim_.now() - it->second.postedAt);
  latency_.send.recordTicks(ticks);
  if (phaseSend_) phaseSend_->recordTicks(ticks);
}

void Mpi::onRxDone(std::uint64_t handle, const Status& st,
                   const transport::DataBuffer& data) {
  const auto it = states_.find(handle);
  COMB_ASSERT(it != states_.end(), "rx completion for unknown request");
  ReqState& state = it->second;
  COMB_ASSERT(state.kind == Kind::Recv, "rx completion for a send");
  COMB_ASSERT(!state.done, "duplicate rx completion");
  state.done = true;
  state.status = st;
  bytesReceived_ += st.bytes;
  transport::deliverData(data, state.userDst);
  const auto ticks = LatencyRecorder::toTicks(sim_.now() - state.postedAt);
  latency_.recv.recordTicks(ticks);
  if (phaseRecv_) phaseRecv_->recordTicks(ticks);
}

void Mpi::beginPhase(std::string_view phase) {
  auto it = std::find_if(phases_.begin(), phases_.end(),
                         [phase](const PhaseRecorders& r) {
                           return r.label == phase;
                         });
  if (it == phases_.end()) {
    const int n = static_cast<int>(phase.size());
    phases_.push_back(PhaseRecorders{
        std::string(phase),
        &sim_.metrics().latency(strFormat("mpi.n%d.send_latency.%.*s",
                                          rank(), n, phase.data())),
        &sim_.metrics().latency(strFormat("mpi.n%d.recv_latency.%.*s",
                                          rank(), n, phase.data()))});
    it = std::prev(phases_.end());
  }
  phaseSend_ = it->send;
  phaseRecv_ = it->recv;
}

void Mpi::endPhase() {
  phaseSend_ = nullptr;
  phaseRecv_ = nullptr;
}

Mpi::ReqState& Mpi::stateOf(Request req) {
  COMB_REQUIRE(req.valid(), "operation on an invalid (freed?) request");
  const auto it = states_.find(req.id);
  COMB_REQUIRE(it != states_.end(),
               strFormat("unknown request id %llu",
                         static_cast<unsigned long long>(req.id)));
  return it->second;
}

void Mpi::freeRequest(Request& req, Status* statusOut) {
  const auto it = states_.find(req.id);
  COMB_ASSERT(it != states_.end(), "freeing unknown request");
  if (statusOut) *statusOut = it->second.status;
  states_.erase(it);
  req.id = 0;
}

sim::Task<Request> Mpi::isend(const Comm& comm, Rank dst, Tag tag,
                              Bytes bytes, std::span<const std::byte> data) {
  COMB_REQUIRE(tag >= kMinUserTag || tag <= -2,
               "tag -1 is reserved (kAnyTag)");
  COMB_REQUIRE(data.empty() || data.size() == bytes,
               "payload span size must equal the message byte count");
  const Request req{nextReq_++};
  states_[req.id] = ReqState{Kind::Send, false, Status{}, {}, sim_.now()};
  ++sendsPosted_;
  bytesSent_ += bytes;
  counters_.isend.add();
  // Span over the full call: for eager GM the post itself copies the
  // payload, so the span width is the paper's "post" cost made visible.
  sim::TraceScope span(sim_, sim::TraceCategory::MpiCall, rank(), "isend",
                       static_cast<double>(bytes));
  transport::TxReq tx;
  tx.handle = req.id;
  tx.dstNode = comm.worldRank(dst);
  tx.env = Envelope{comm.id(), comm.rank(), tag};
  tx.bytes = bytes;
  tx.data = transport::captureData(data);
  co_await ep_.postSend(std::move(tx));
  co_return req;
}

sim::Task<Request> Mpi::irecv(const Comm& comm, Rank src, Tag tag,
                              Bytes maxBytes, std::span<std::byte> dstBuf) {
  COMB_REQUIRE(src == kAnySource || (src >= 0 && src < comm.size()),
               "irecv source rank out of range");
  COMB_REQUIRE(dstBuf.empty() || dstBuf.size() >= maxBytes,
               "receive buffer smaller than maxBytes");
  const Request req{nextReq_++};
  states_[req.id] = ReqState{Kind::Recv, false, Status{}, dstBuf, sim_.now()};
  ++recvsPosted_;
  counters_.irecv.add();
  sim::TraceScope span(sim_, sim::TraceCategory::MpiCall, rank(), "irecv",
                       static_cast<double>(maxBytes));
  transport::RxReq rx;
  rx.handle = req.id;
  rx.pattern = Pattern{comm.id(), src, tag};
  rx.maxBytes = maxBytes;
  co_await ep_.postRecv(std::move(rx));
  co_return req;
}

bool Mpi::peekDone(Request req) const {
  const auto it = states_.find(req.id);
  return it != states_.end() && it->second.done;
}

sim::Task<void> Mpi::progressOnce() {
  counters_.progress.add();
  sim::TraceScope span(sim_, sim::TraceCategory::MpiCall, rank(), "progress");
  co_await ep_.progress();
}

sim::Task<bool> Mpi::test(Request& req, Status* status) {
  (void)stateOf(req);  // validate before paying for progress
  counters_.test.add();
  sim::TraceScope span(sim_, sim::TraceCategory::MpiCall, rank(), "test");
  co_await ep_.progress();
  if (!stateOf(req).done) co_return false;
  freeRequest(req, status);
  co_return true;
}

sim::Task<void> Mpi::wait(Request& req, Status* status) {
  (void)stateOf(req);
  counters_.wait.add();
  sim::TraceScope span(sim_, sim::TraceCategory::MpiCall, rank(), "wait");
  while (true) {
    // Snapshot the activity version *before* progressing so completions
    // that land during the progress call cannot be missed.
    const std::uint64_t seen = ep_.activity().version();
    co_await ep_.progress();
    if (stateOf(req).done) break;
    co_await ep_.activity().changedSince(seen);
  }
  freeRequest(req, status);
}

sim::Task<std::vector<std::size_t>> Mpi::testsome(
    std::span<Request> reqs, std::vector<Status>* statuses) {
  counters_.test.add();
  sim::TraceScope span(sim_, sim::TraceCategory::MpiCall, rank(), "testsome");
  co_await ep_.progress();
  std::vector<std::size_t> completed;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!reqs[i].valid()) continue;
    if (stateOf(reqs[i]).done) {
      Status st;
      freeRequest(reqs[i], &st);
      completed.push_back(i);
      if (statuses) statuses->push_back(st);
    }
  }
  co_return completed;
}

sim::Task<void> Mpi::waitall(std::span<Request> reqs) {
  counters_.wait.add();
  sim::TraceScope span(sim_, sim::TraceCategory::MpiCall, rank(), "waitall");
  auto allDone = [&] {
    for (const Request& r : reqs)
      if (r.valid() && !states_.at(r.id).done) return false;
    return true;
  };
  while (true) {
    const std::uint64_t seen = ep_.activity().version();
    co_await ep_.progress();
    if (allDone()) break;
    co_await ep_.activity().changedSince(seen);
  }
  for (Request& r : reqs) {
    if (r.valid()) freeRequest(r, nullptr);
  }
}

sim::Task<std::size_t> Mpi::waitany(std::span<Request> reqs, Status* status) {
  COMB_REQUIRE(std::any_of(reqs.begin(), reqs.end(),
                           [](const Request& r) { return r.valid(); }),
               "waitany needs at least one valid request");
  counters_.wait.add();
  sim::TraceScope span(sim_, sim::TraceCategory::MpiCall, rank(), "waitany");
  while (true) {
    const std::uint64_t seen = ep_.activity().version();
    co_await ep_.progress();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      if (reqs[i].valid() && stateOf(reqs[i]).done) {
        freeRequest(reqs[i], status);
        co_return i;
      }
    }
    co_await ep_.activity().changedSince(seen);
  }
}

sim::Task<void> Mpi::send(const Comm& comm, Rank dst, Tag tag, Bytes bytes,
                          std::span<const std::byte> data) {
  Request req = co_await isend(comm, dst, tag, bytes, data);
  co_await wait(req);
}

sim::Task<void> Mpi::recv(const Comm& comm, Rank src, Tag tag, Bytes maxBytes,
                          std::span<std::byte> dstBuf, Status* status) {
  Request req = co_await irecv(comm, src, tag, maxBytes, dstBuf);
  co_await wait(req, status);
}

sim::Task<void> Mpi::sendrecv(const Comm& comm, Rank dst, Tag sendTag,
                              Bytes sendBytes,
                              std::span<const std::byte> sendBuf, Rank src,
                              Tag recvTag, Bytes recvMaxBytes,
                              std::span<std::byte> recvBuf, Status* status) {
  Request rx = co_await irecv(comm, src, recvTag, recvMaxBytes, recvBuf);
  Request tx = co_await isend(comm, dst, sendTag, sendBytes, sendBuf);
  co_await wait(rx, status);
  co_await wait(tx);
}

sim::Task<bool> Mpi::iprobe(const Comm& comm, Rank src, Tag tag,
                            Status* status) {
  co_await ep_.progress();
  const Pattern pattern{comm.id(), src, tag};
  if (auto st = ep_.peekUnexpected(pattern)) {
    if (status) *status = *st;
    co_return true;
  }
  co_return false;
}

sim::Task<bool> Mpi::cancel(Request& req) {
  ReqState& state = stateOf(req);
  COMB_REQUIRE(state.kind == Kind::Recv, "only receives can be cancelled");
  if (state.done) co_return false;
  const bool ok = co_await ep_.cancelRecv(req.id);
  if (ok) {
    freeRequest(req, nullptr);
    co_return true;
  }
  co_return false;
}

}  // namespace comb::mpi
