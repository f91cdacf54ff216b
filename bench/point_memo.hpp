// One memo of simulated points for a run of the paper bench: each
// distinct (machine, Param) point is simulated once, however many
// figures' sweeps read it.
//
// This is sound because a point's RepRun is a pure function of (machine,
// params, RunOptions): rep seeds derive from (rep.seed, fault seed, rep),
// never from the point's place in a sweep, and one memo serves one
// RunOptions. The key is (backend::machineSignature, Param), with Param
// compared by its operator== and never by raw bytes: the structs'
// padding is uninitialised.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "backend/machine.hpp"
#include "comb/params.hpp"
#include "comb/runner.hpp"
#include "common/thread_pool.hpp"

namespace comb::bench {

/// One sweep a figure reads: its id in the figure's archive, the machine
/// and what is swept.
struct Sweep {
  std::string id;
  backend::MachineConfig machine;
  std::variant<SweepSpec<PollingParams>, SweepSpec<PwwParams>> spec;
};

class PointMemo {
 public:
  explicit PointMemo(RunOptions opts) : opts_(std::move(opts)) {}

  /// Simulate every point of `sweeps` the memo does not hold yet, as one
  /// batch over the pool (--jobs), so points of different sweeps run side
  /// by side. A point that throws aborts the fill (the lowest-index
  /// exception is rethrown, as in parallelFor); the memo is not used
  /// after that.
  void fill(const std::vector<Sweep>& sweeps) {
    std::vector<std::function<void()>> missing;
    for (const Sweep& s : sweeps)
      std::visit([&](const auto& spec) { queue(s.machine, spec, missing); },
                 s.spec);
    parallelFor(missing.size(), opts_.jobs,
                [&](std::size_t i) { missing[i](); });
    simulated_ += missing.size();
  }

  /// The runs of `spec` on `machine`, one per swept value in axis order;
  /// simulates the points the memo lacks first.
  template <typename Param>
  std::vector<RepRun<PointOf<Param>>> runs(
      const backend::MachineConfig& machine, const SweepSpec<Param>& spec) {
    fill({Sweep{"", machine, spec}});
    const Bucket<Param>& bucket =
        std::get<Store<Param>>(stores_).at(backend::machineSignature(machine));
    std::vector<RepRun<PointOf<Param>>> out;
    for (const Param& p : expandSweep(spec))
      out.push_back(find(bucket, p)->run);
    return out;
  }

  /// Points simulated so far, each distinct point counted once.
  std::size_t simulated() const { return simulated_; }

 private:
  template <typename Param>
  struct Entry {
    Param params;
    RepRun<PointOf<Param>> run;
  };
  // A deque keeps entries in place while later ones are added, so a
  // queued simulation can write its entry's run directly.
  template <typename Param>
  using Bucket = std::deque<Entry<Param>>;
  template <typename Param>
  using Store = std::map<std::string, Bucket<Param>>;  // by signature

  template <typename Param>
  static const Entry<Param>* find(const Bucket<Param>& bucket,
                                  const Param& params) {
    for (const auto& e : bucket)
      if (e.params == params) return &e;
    return nullptr;
  }

  /// Add an entry for each point of `spec` not yet held and queue its
  /// simulation; a point listed twice is queued once.
  template <typename Param>
  void queue(const backend::MachineConfig& machine,
             const SweepSpec<Param>& spec,
             std::vector<std::function<void()>>& missing) {
    Bucket<Param>& bucket =
        std::get<Store<Param>>(stores_)[backend::machineSignature(machine)];
    for (const Param& p : expandSweep(spec)) {
      if (find(bucket, p) != nullptr) continue;
      Entry<Param>& e = bucket.emplace_back(Entry<Param>{p, {}});
      missing.push_back([this, &machine, &e] {
        e.run = runPointReps(machine, e.params, opts_);
      });
    }
  }

  RunOptions opts_;
  std::tuple<Store<PollingParams>, Store<PwwParams>> stores_;
  std::size_t simulated_ = 0;
};

}  // namespace comb::bench
