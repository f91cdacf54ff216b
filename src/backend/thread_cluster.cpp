#include "backend/thread_cluster.hpp"

#include <chrono>
#include <exception>

#include "common/error.hpp"
#include "common/log.hpp"

namespace comb::backend {

namespace {

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double calibrateSpin() {
  // One calibration per process: time a fixed spin and derive s/iter.
  static const double perIter = [] {
    constexpr std::uint64_t kIters = 20'000'000;
    const double t0 = wallSeconds();
    ThreadCluster::spin(kIters);
    const double t1 = wallSeconds();
    return (t1 - t0) / static_cast<double>(kIters);
  }();
  return perIter;
}

}  // namespace

void ThreadCluster::spin(std::uint64_t iters) {
  // A volatile sink keeps the loop from being optimized away without the
  // deprecated volatile-increment idiom.
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < iters; ++i) sink = i;
  (void)sink;
}

ThreadCluster::ThreadCluster(int ranks, bool offload)
    : offload_(offload), secondsPerIter_(calibrateSpin()) {
  COMB_REQUIRE(ranks >= 1, "cluster needs at least one rank");
  barrier_ = std::make_unique<std::barrier<>>(ranks);
  for (int r = 0; r < ranks; ++r)
    ranks_.push_back(std::make_unique<ThreadMpi>(*this, r, ranks));
  for (int r = 0; r < ranks; ++r)
    procs_.push_back(std::make_unique<ThreadProc>(
        *this, *ranks_[static_cast<std::size_t>(r)], secondsPerIter_));
}

ThreadCluster::~ThreadCluster() = default;

void ThreadCluster::run(
    const std::vector<std::function<void(ThreadProc&)>>& mains) {
  COMB_REQUIRE(static_cast<int>(mains.size()) == size(),
               "need exactly one main per rank");
  std::vector<std::exception_ptr> errors(mains.size());
  std::vector<std::thread> threads;
  threads.reserve(mains.size());
  for (std::size_t r = 0; r < mains.size(); ++r) {
    threads.emplace_back([this, r, &mains, &errors] {
      try {
        mains[r](*procs_[r]);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors)
    if (e) std::rethrow_exception(e);
}

// --- ThreadProc -------------------------------------------------------------

Time ThreadProc::wtime() const { return wallSeconds(); }

Immediate<Unit> ThreadProc::work(std::uint64_t iters) const {
  ThreadCluster::spin(iters);
  return {};
}

std::uint64_t ThreadProc::activityVersion() const {
  return mpi_->activity_.load(std::memory_order_acquire);
}

Immediate<Unit> ThreadProc::waitActivity(std::uint64_t seen) const {
  while (mpi_->activity_.load(std::memory_order_acquire) == seen)
    std::this_thread::yield();
  return {};
}

// --- ThreadMpi ---------------------------------------------------------------

namespace {

std::vector<mpi::Rank> iotaRanks(int n) {
  std::vector<mpi::Rank> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

}  // namespace

ThreadMpi::ThreadMpi(ThreadCluster& cluster, mpi::Rank rank, int size)
    : cluster_(cluster), world_(mpi::Comm(0, iotaRanks(size), rank)) {}

void ThreadMpi::completeRecvLocked(std::uint64_t handle,
                                   const mpi::Envelope& env, Bytes bytes,
                                   const transport::DataBuffer& data) {
  const auto it = states_.find(handle);
  COMB_ASSERT(it != states_.end(), "completion for unknown request");
  ReqState& st = it->second;
  COMB_ASSERT(st.isRecv && !st.done, "bad completion target");
  st.done = true;
  st.status = mpi::Status{env.srcRank, env.tag, bytes};
  transport::deliverData(data, st.userDst);
}

void ThreadMpi::matchLocked(InboxMsg msg) {
  if (auto rec = match_.matchArrival(msg.env, msg.bytes))
    completeRecvLocked(rec->cookie, msg.env, msg.bytes, msg.data);
  else
    match_.addUnexpected(msg.env, msg.bytes, std::move(msg.data));
}

void ThreadMpi::progressLocked() {
  while (!inbox_.empty()) {
    InboxMsg msg = std::move(inbox_.front());
    inbox_.pop_front();
    matchLocked(std::move(msg));
  }
}

void ThreadMpi::acceptMessage(InboxMsg msg, bool senderMatches) {
  {
    std::lock_guard lock(mu_);
    if (senderMatches) {
      // Application offload: the sender's thread performs the match, so
      // the receive completes with no receiver-side library call.
      matchLocked(std::move(msg));
    } else {
      // Library-driven progress: park the bytes until the receiver calls
      // into the library.
      inbox_.push_back(std::move(msg));
    }
  }
  activity_.fetch_add(1, std::memory_order_release);
}

Immediate<mpi::Request> ThreadMpi::isend(const mpi::Comm& comm, mpi::Rank dst,
                                         mpi::Tag tag, Bytes bytes,
                                         std::span<const std::byte> data) {
  COMB_REQUIRE(data.empty() || data.size() == bytes,
               "payload span size must equal the message byte count");
  mpi::Request req;
  {
    std::lock_guard lock(mu_);
    req.id = nextReq_++;
    // Buffered-send semantics: locally complete once the payload is
    // captured.
    states_[req.id] = ReqState{false, true, mpi::Status{}, {}};
  }
  InboxMsg msg;
  msg.env = mpi::Envelope{comm.id(), comm.rank(), tag};
  msg.bytes = bytes;
  msg.data = transport::captureData(data);
  cluster_.mpi(comm.worldRank(dst)).acceptMessage(std::move(msg),
                                                  cluster_.offload());
  activity_.fetch_add(1, std::memory_order_release);
  return ready(req);
}

Immediate<mpi::Request> ThreadMpi::irecv(const mpi::Comm& comm, mpi::Rank src,
                                         mpi::Tag tag, Bytes maxBytes,
                                         std::span<std::byte> dstBuf) {
  COMB_REQUIRE(dstBuf.empty() || dstBuf.size() >= maxBytes,
               "receive buffer smaller than maxBytes");
  std::lock_guard lock(mu_);
  const mpi::Request req{nextReq_++};
  states_[req.id] = ReqState{true, false, mpi::Status{}, dstBuf};
  progressLocked();  // a post is a library call: drain the inbox first
  const mpi::Pattern pattern{comm.id(), src, tag};
  if (auto u = match_.matchUnexpected(pattern, maxBytes)) {
    completeRecvLocked(req.id, u->env, u->bytes, u->held);
  } else {
    match_.postRecv(pattern, maxBytes, req.id);
  }
  return ready(req);
}

Immediate<bool> ThreadMpi::test(mpi::Request& req, mpi::Status* status) {
  COMB_REQUIRE(req.valid(), "test on an invalid request");
  std::lock_guard lock(mu_);
  progressLocked();
  const auto it = states_.find(req.id);
  COMB_REQUIRE(it != states_.end(), "unknown request");
  if (!it->second.done) return ready(false);
  if (status) *status = it->second.status;
  states_.erase(it);
  req.id = 0;
  return ready(true);
}

Immediate<Unit> ThreadMpi::wait(mpi::Request& req, mpi::Status* status) {
  while (true) {
    auto done = test(req, status);
    if (done.value) return {};
    std::this_thread::yield();
  }
}

Immediate<std::vector<std::size_t>> ThreadMpi::testsome(
    std::span<mpi::Request> reqs, std::vector<mpi::Status>* statuses) {
  std::lock_guard lock(mu_);
  progressLocked();
  std::vector<std::size_t> completed;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    if (!reqs[i].valid()) continue;
    const auto it = states_.find(reqs[i].id);
    COMB_REQUIRE(it != states_.end(), "unknown request");
    if (!it->second.done) continue;
    if (statuses) statuses->push_back(it->second.status);
    states_.erase(it);
    reqs[i].id = 0;
    completed.push_back(i);
  }
  return ready(std::move(completed));
}

Immediate<Unit> ThreadMpi::waitall(std::span<mpi::Request> reqs) {
  for (auto& r : reqs) {
    if (r.valid()) wait(r);
  }
  return {};
}

Immediate<Unit> ThreadMpi::send(const mpi::Comm& comm, mpi::Rank dst,
                                mpi::Tag tag, Bytes bytes,
                                std::span<const std::byte> data) {
  auto req = isend(comm, dst, tag, bytes, data);
  wait(req.value);
  return {};
}

Immediate<Unit> ThreadMpi::recv(const mpi::Comm& comm, mpi::Rank src,
                                mpi::Tag tag, Bytes maxBytes,
                                std::span<std::byte> dstBuf,
                                mpi::Status* status) {
  auto req = irecv(comm, src, tag, maxBytes, dstBuf);
  wait(req.value, status);
  return {};
}

Immediate<bool> ThreadMpi::iprobe(const mpi::Comm& comm, mpi::Rank src,
                                  mpi::Tag tag, mpi::Status* status) {
  std::lock_guard lock(mu_);
  progressLocked();
  if (const auto* u =
          match_.peekUnexpected(mpi::Pattern{comm.id(), src, tag})) {
    if (status) *status = mpi::Status{u->env.srcRank, u->env.tag, u->bytes};
    return ready(true);
  }
  return ready(false);
}

Immediate<bool> ThreadMpi::cancel(mpi::Request& req) {
  COMB_REQUIRE(req.valid(), "cancel on an invalid request");
  std::lock_guard lock(mu_);
  progressLocked();
  const auto it = states_.find(req.id);
  COMB_REQUIRE(it != states_.end(), "unknown request");
  COMB_REQUIRE(it->second.isRecv, "only receives can be cancelled");
  if (it->second.done) return ready(false);
  const bool ok = match_.cancelRecv(req.id);
  if (ok) {
    states_.erase(it);
    req.id = 0;
  }
  return ready(ok);
}

Immediate<Unit> ThreadMpi::barrier(const mpi::Comm& comm) {
  COMB_REQUIRE(comm.id() == 0 && comm.size() == cluster_.size(),
               "thread backend barriers are world-only");
  cluster_.barrierFor().arrive_and_wait();
  return {};
}

Immediate<Unit> ThreadMpi::progressOnce() {
  std::lock_guard lock(mu_);
  progressLocked();
  return {};
}

bool ThreadMpi::peekDone(mpi::Request req) {
  std::lock_guard lock(mu_);
  const auto it = states_.find(req.id);
  return it != states_.end() && it->second.done;
}

std::size_t ThreadMpi::pendingRequests() {
  std::lock_guard lock(mu_);
  return states_.size();
}

}  // namespace comb::backend
