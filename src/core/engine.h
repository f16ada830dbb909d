// The HybridGraph BSP engine: push, pushM, b-pull and hybrid execution of a
// vertex Program over a simulated cluster of disk-resident nodes.
//
// Execution model per superstep t (uniform across modes):
//   Phase A (consume)  — every node collects the messages addressed to its
//     vertices: under push consumption they were delivered at t-1 into a
//     double-buffered inbox (memory portion B_i + sorted disk spill); under
//     b-pull consumption the node issues one pull request per local Vblock
//     and the senders run Pull-Respond (Algorithm 2) against their Eblocks.
//   Phase B (update + produce) — every node updates its vertices
//     (update()), records responding flags (setResFlag), and if the
//     *production* mode is push immediately generates and ships messages
//     from the adjacency store (pushRes()); under b-pull production nothing
//     is sent — next superstep's pulls will call pullRes() on demand.
//
// Phase A of all nodes runs before any Phase B, which gives the BSP
// semantics (pull always observes superstep t-1 values) without vertex
// value versioning. Hybrid switching (Sec 5.2) falls out of the mode split:
// consumption mode at t is simply the production mode chosen at t-1, so the
// b-pull -> push switch superstep both pulls and pushes (the paper's
// resource-contention spike at superstep 11 of Fig 14), and the
// push -> b-pull switch superstep consumes pushed messages and produces
// nothing, exactly as in Fig 6.
//
// This header is a facade: the BSP loop, barriers, accounting and hybrid
// switching live in SuperstepDriver (core/superstep_driver.h); the
// per-mode load/update/pushRes/pullRes behavior lives in the MessagePath
// strategies under core/paths/. Engine<P> installs the paths kModeWiring
// lists for config.mode into one driver and forwards its public API — every
// mode, the GAS v-pull baseline included, runs through this one engine.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/job_config.h"
#include "core/paths/adaptive_path.h"
#include "core/paths/bpull_path.h"
#include "core/paths/ghp_path.h"
#include "core/paths/push_m_path.h"
#include "core/paths/push_path.h"
#include "core/paths/vpull_path.h"
#include "core/program.h"
#include "core/run_metrics.h"
#include "core/superstep_driver.h"
#include "graph/edge_list.h"
#include "graph/partition.h"
#include "util/buffer.h"
#include "util/status.h"

namespace hybridgraph {

/// One bit per MessagePath implementation, in install (= build) order.
enum PathBits : uint8_t {
  kPushPathBit = 1 << 0,
  kPushMPathBit = 1 << 1,
  kBPullPathBit = 1 << 2,
  kAdaptivePathBit = 1 << 3,
  kGhpPathBit = 1 << 4,
  kVPullPathBit = 1 << 5,
};

/// Mode -> path wiring. `installed` paths occupy their registry slot so
/// consumption can dispatch by mode; `active` ones also build their disk
/// layout at Load and may produce. Under adaptive the per-cell path both
/// produces and serves pulls, so push and b-pull stay installed but inactive
/// (their drain machinery is invoked through the adaptive path, not their
/// registry slots).
struct ModeWiring {
  EngineMode mode;
  uint8_t installed;
  uint8_t active;
};

inline constexpr ModeWiring kModeWiring[] = {
    {EngineMode::kPush, kPushPathBit | kBPullPathBit, kPushPathBit},
    {EngineMode::kPushM, kPushMPathBit | kBPullPathBit, kPushMPathBit},
    {EngineMode::kVPull, kVPullPathBit, kVPullPathBit},
    {EngineMode::kBPull, kPushPathBit | kBPullPathBit, kBPullPathBit},
    {EngineMode::kHybrid, kPushPathBit | kBPullPathBit,
     kPushPathBit | kBPullPathBit},
    {EngineMode::kAdaptive, kPushPathBit | kBPullPathBit | kAdaptivePathBit,
     kAdaptivePathBit},
    {EngineMode::kGraphHp, kPushPathBit | kBPullPathBit | kGhpPathBit,
     kGhpPathBit},
};

static_assert(sizeof(kModeWiring) / sizeof(kModeWiring[0]) == kNumEngineModes,
              "every EngineMode needs a row in kModeWiring");

template <typename P>
class Engine {
 public:
  using Value = typename P::Value;
  using Message = typename P::Message;

  Engine(JobConfig config, P program)
      : driver_(std::move(config), std::move(program)) {
    StaticCheckProgram<P>();
    ModeWiring w{};
    for (const ModeWiring& row : kModeWiring) {
      if (row.mode == driver_.config().mode) w = row;
    }
    Install<PushPath<P>>(w, kPushPathBit);
    Install<PushMPath<P>>(w, kPushMPathBit);
    Install<BPullPath<P>>(w, kBPullPathBit);
    adaptive_ = Install<AdaptivePath<P>>(w, kAdaptivePathBit);
    Install<GhpPath<P>>(w, kGhpPathBit);
    Install<VPullPath<P>>(w, kVPullPathBit);
  }

  /// Partitions the graph, derives Vblock counts (Eq. 5/6), builds the
  /// disk layouts each active path needs, and initializes vertex state.
  Status Load(const EdgeListGraph& graph) { return driver_.Load(graph); }

  /// Runs supersteps until convergence or config.max_supersteps.
  Status Run() { return driver_.Run(); }

  /// Runs exactly one superstep (exposed for tests and traces).
  Status RunSuperstep() { return driver_.RunSuperstep(); }

  const JobStats& stats() const { return driver_.stats(); }
  const RangePartition& partition() const { return driver_.partition(); }
  const JobConfig& config() const { return driver_.config(); }
  bool converged() const { return driver_.converged(); }
  int superstep() const { return driver_.superstep(); }
  /// Production mode of the upcoming superstep (hybrid switches this).
  EngineMode current_mode() const { return driver_.current_mode(); }

  /// Collects all vertex values (global, indexed by vertex id).
  Result<std::vector<Value>> GatherValues() { return driver_.GatherValues(); }

  /// Theorem 2's max(0, |E|/2 - f) (valid after Load()).
  uint64_t b_lower_bound() const { return driver_.b_lower_bound(); }

  /// Serializes the full runtime state (superstep, mode, vertex values,
  /// flags, undelivered messages) so a failed job can resume from the last
  /// barrier instead of recomputing from scratch (the lightweight
  /// fault-tolerance the paper leaves as future work, Appendix A).
  Status WriteCheckpoint(Buffer* out) { return driver_.WriteCheckpoint(out); }

  /// Restores a WriteCheckpoint() image into a freshly Load()ed engine with
  /// an identical config and graph. Per-superstep stats restart empty.
  Status RestoreCheckpoint(Slice data) {
    return driver_.RestoreCheckpoint(data);
  }

  /// The underlying driver; AnyEngine::RunEpoch starts streaming epochs
  /// through its StartEpoch.
  SuperstepDriver<P>& driver() { return driver_; }

  /// The adaptive path's accumulated per-cell decision log (empty unless
  /// config.mode == kAdaptive) — the golden-test surface.
  const std::string& adaptive_decision_log() const {
    static const std::string kEmpty;
    return adaptive_ ? adaptive_->decision_log() : kEmpty;
  }

 private:
  /// Creates and registers the path behind `bit` when the wiring installs
  /// it; returns it (or null).
  template <typename Path>
  Path* Install(const ModeWiring& w, uint8_t bit) {
    if ((w.installed & bit) == 0) return nullptr;
    auto path = std::make_unique<Path>(&driver_);
    Path* raw = path.get();
    driver_.InstallPath(raw, /*active=*/(w.active & bit) != 0);
    paths_.push_back(std::move(path));
    return raw;
  }

  SuperstepDriver<P> driver_;
  std::vector<std::unique_ptr<MessagePath<P>>> paths_;
  AdaptivePath<P>* adaptive_ = nullptr;  // config.mode == kAdaptive only
};

}  // namespace hybridgraph
