#include "hybridgraph/any_engine.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <utility>

#include "algos/bfs.h"
#include "algos/lpa.h"
#include "algos/pagerank.h"
#include "algos/pagerank_delta.h"
#include "algos/sa.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/aggregators.h"
#include "core/engine.h"
#include "net/message_codec.h"

namespace hybridgraph {

namespace {

VertexId MaxOutDegreeVertex(const EdgeListGraph& graph) {
  const auto degrees = graph.OutDegrees();
  return static_cast<VertexId>(
      std::max_element(degrees.begin(), degrees.end()) - degrees.begin());
}

/// Owns the actual engine. `Prepare` patches the program once the graph is
/// known (source defaulting); `ToDouble` projects a value for
/// GatherValuesAsDouble().
template <typename P, typename Prepare, typename ToDouble>
class TypedEngine final : public AnyEngine {
 public:
  using Value = typename P::Value;

  TypedEngine(JobConfig config, P program, Prepare prepare, ToDouble to_double)
      : config_(std::move(config)),
        program_(std::move(program)),
        prepare_(std::move(prepare)),
        to_double_(std::move(to_double)) {}

  Status Load(const EdgeListGraph& graph) override {
    prepare_(program_, graph);
    engine_ = std::make_unique<Engine<P>>(config_, program_);
    return engine_->Load(graph);
  }

  Status Run() override {
    if (!engine_) return Status::FailedPrecondition("Load() first");
    return engine_->Run();
  }

  Status RunSuperstep() override {
    if (!engine_) return Status::FailedPrecondition("Load() first");
    return engine_->RunSuperstep();
  }

  bool converged() const override { return engine_ && engine_->converged(); }

  const JobStats& stats() const override {
    return engine_ ? engine_->stats() : empty_stats_;
  }

  size_t value_size() const override { return P::kValueSize; }

  Result<std::vector<uint8_t>> GatherValuesRaw() override {
    HG_ASSIGN_OR_RETURN(std::vector<Value> values, Gather());
    std::vector<uint8_t> out(values.size() * P::kValueSize);
    for (size_t i = 0; i < values.size(); ++i) {
      PodCodec<Value>::Encode(values[i], out.data() + i * P::kValueSize);
    }
    return out;
  }

  Result<std::vector<double>> GatherValuesAsDouble() override {
    HG_ASSIGN_OR_RETURN(std::vector<Value> values, Gather());
    std::vector<double> out;
    out.reserve(values.size());
    for (const Value& v : values) out.push_back(to_double_(v));
    return out;
  }

  uint64_t num_vertices() const override {
    return engine_ ? engine_->partition().num_vertices() : 0;
  }

  Status CheckStreamable() const override {
    // The streaming algorithm rule. Seeding only a batch's endpoints reaches
    // the cold fixpoint only when an improvement can originate nowhere else:
    // true for monotone, locally iterable programs. Always-Active programs
    // reseed the whole graph, which converges again only under an
    // aggregator halt (a fixed superstep count or a label vote never does).
    if constexpr (!(LocallyIterable<P> ||
                    (P::kAlwaysActive && HasAggregateHalt<P>))) {
      return Status::FailedPrecondition(
          "streaming epochs need a locally iterable (monotone) program or "
          "an Always-Active one with an aggregator halt");
    }
    return ValidateStreamingMode(config_.mode);
  }

  Status RunEpoch(const EdgeBatch& batch, EpochMetrics* m) override {
    HG_RETURN_IF_ERROR(CheckStreamable());
    if (!engine_) return Status::FailedPrecondition("Load() first");
    Engine<P>& engine = *engine_;
    // Snapshot the modeled meters so the epoch reports deltas.
    auto storage_bytes = [&engine](bool writes) {
      uint64_t total = 0;
      for (auto& node : engine.nodes()) {
        const DiskMeter* meter = node.storage->meter();
        total += writes ? meter->WriteBytes() : meter->ReadBytes();
      }
      return total;
    };
    const uint64_t read0 = storage_bytes(false), write0 = storage_bytes(true);
    const uint64_t net0 = engine.transport().TotalBytesSent();
    const double modeled0 = engine.stats().modeled_seconds;
    const size_t supersteps0 = engine.stats().supersteps.size();

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<VertexId> touched;
    HG_RETURN_IF_ERROR(
        ApplyEdgeBatch(engine.partition(), batch, engine.nodes(), &touched));
    const auto t1 = std::chrono::steady_clock::now();

    // Insert-only batches of a monotone program: every possible improvement
    // originates at a new edge's source, which re-announces its converged
    // value at superstep 0.
    const EpochSeed seed = P::kAlwaysActive ? EpochSeed::kAll
                           : batch.HasDeletes() ? EpochSeed::kReinit
                                                : EpochSeed::kTouched;
    HG_RETURN_IF_ERROR(engine.StartEpoch(seed, touched));
    HG_RETURN_IF_ERROR(engine.Run());
    const auto t2 = std::chrono::steady_clock::now();

    if (m != nullptr) {
      *m = EpochMetrics{};
      m->epoch = epochs_run_;
      m->timestamp = batch.timestamp;
      m->batch_deltas = batch.deltas.size();
      m->inserts = batch.NumInserts();
      m->deletes = batch.NumDeletes();
      m->touched_vertices = touched.size();
      m->warm = seed != EpochSeed::kReinit;
      m->supersteps = engine.stats().supersteps.size() - supersteps0;
      m->ingest_wall_s = std::chrono::duration<double>(t1 - t0).count();
      m->converge_wall_s = std::chrono::duration<double>(t2 - t1).count();
      m->modeled_seconds = engine.stats().modeled_seconds - modeled0;
      m->read_bytes = storage_bytes(false) - read0;
      m->write_bytes = storage_bytes(true) - write0;
      m->net_bytes = engine.transport().TotalBytesSent() - net0;
      for (auto& node : engine.nodes()) {
        if (node.ve != nullptr) {
          m->delta_runs += node.ve->DeltaRunCount();
          m->delta_bytes += node.ve->DeltaBytes();
        }
      }
    }
    ++epochs_run_;
    return Status::OK();
  }

  Status CompactAll(uint64_t min_runs) override {
    if (!engine_) return Status::FailedPrecondition("Load() first");
    for (auto& node : engine_->nodes()) {
      if (node.ve != nullptr) {
        HG_RETURN_IF_ERROR(node.ve->CompactAll(min_runs));
      }
    }
    return Status::OK();
  }

  uint64_t epochs_run() const override { return epochs_run_; }

 private:
  Result<std::vector<Value>> Gather() {
    if (!engine_) return Status::FailedPrecondition("Load() first");
    return engine_->GatherValues();
  }

  JobConfig config_;
  P program_;
  Prepare prepare_;
  ToDouble to_double_;
  std::unique_ptr<Engine<P>> engine_;
  JobStats empty_stats_;
  uint64_t epochs_run_ = 0;
};

template <typename P, typename Prepare, typename ToDouble>
std::unique_ptr<AnyEngine> MakeTyped(const JobConfig& config, P program,
                                     Prepare prepare, ToDouble to_double) {
  return std::make_unique<TypedEngine<P, Prepare, ToDouble>>(
      config, std::move(program), std::move(prepare), std::move(to_double));
}

constexpr auto kNoPrepare = [](auto&, const EdgeListGraph&) {};
constexpr auto kNumericValue = [](const auto& v) {
  return static_cast<double>(v);
};

/// For traversal algorithms with a `source` member: take it from the spec,
/// or defer to the max-out-degree vertex once the graph is known (the
/// paper's source-selection convention).
template <typename P>
std::unique_ptr<AnyEngine> MakeSourced(const JobConfig& config,
                                       const AlgoSpec& spec) {
  P program;
  if (spec.source_set) program.source = spec.source;
  const bool pick_source = !spec.source_set;
  return MakeTyped(
      config, program,
      [pick_source](P& p, const EdgeListGraph& g) {
        if (pick_source) p.source = MaxOutDegreeVertex(g);
      },
      kNumericValue);
}

/// The one registry of bundled algorithms: name, kind, and how to build a
/// type-erased engine for it. Adding an algorithm means adding one row —
/// AlgoKindName, ParseAlgoKind and MakeEngine all walk this table.
struct AlgoEntry {
  AlgoKind kind;
  const char* name;
  std::unique_ptr<AnyEngine> (*make)(const JobConfig&, const AlgoSpec&);
};

const AlgoEntry kAlgoTable[] = {
    {AlgoKind::kPageRank, "pagerank",
     [](const JobConfig& c, const AlgoSpec&) {
       return MakeTyped(c, PageRankProgram{}, kNoPrepare, kNumericValue);
     }},
    {AlgoKind::kPageRankDelta, "pagerank-delta",
     [](const JobConfig& c, const AlgoSpec& spec) {
       PageRankDeltaProgram program;
       if (spec.tolerance != 0) program.tolerance = spec.tolerance;
       return MakeTyped(c, program, kNoPrepare, kNumericValue);
     }},
    {AlgoKind::kSssp, "sssp", &MakeSourced<SsspProgram>},
    {AlgoKind::kBfs, "bfs", &MakeSourced<BfsProgram>},
    {AlgoKind::kLpa, "lpa",
     [](const JobConfig& c, const AlgoSpec&) {
       return MakeTyped(c, LpaProgram{}, kNoPrepare, kNumericValue);
     }},
    {AlgoKind::kSa, "sa",
     [](const JobConfig& c, const AlgoSpec& spec) {
       SaProgram program;
       if (spec.sa_source_stride != 0) {
         program.source_stride = spec.sa_source_stride;
       }
       return MakeTyped(c, program, kNoPrepare, [](const SaProgram::Value& v) {
         return static_cast<double>(std::popcount(v.adopted));
       });
     }},
    {AlgoKind::kWcc, "wcc",
     [](const JobConfig& c, const AlgoSpec&) {
       return MakeTyped(c, WccProgram{}, kNoPrepare, kNumericValue);
     }},
};

}  // namespace

const char* AlgoKindName(AlgoKind kind) {
  for (const AlgoEntry& entry : kAlgoTable) {
    if (entry.kind == kind) return entry.name;
  }
  return "?";
}

Result<AlgoKind> ParseAlgoKind(const std::string& name) {
  for (const AlgoEntry& entry : kAlgoTable) {
    if (name == entry.name) return entry.kind;
  }
  return Status::InvalidArgument("unknown algorithm: " + name);
}

Result<std::unique_ptr<AnyEngine>> MakeEngine(const JobConfig& config,
                                              const AlgoSpec& spec) {
  for (const AlgoEntry& entry : kAlgoTable) {
    if (entry.kind == spec.kind) return entry.make(config, spec);
  }
  return Status::InvalidArgument("unknown AlgoKind");
}

Result<std::unique_ptr<AnyEngine>> MakeEpochEngine(const JobConfig& config,
                                                   const EpochAlgoSpec& spec) {
  AlgoSpec algo;
  HG_ASSIGN_OR_RETURN(algo.kind, ParseAlgoKind(spec.name));
  algo.source = spec.source;
  algo.source_set = true;
  algo.tolerance = spec.tolerance;
  HG_ASSIGN_OR_RETURN(std::unique_ptr<AnyEngine> engine,
                      MakeEngine(config, algo));
  const Status rules = engine->CheckStreamable();
  if (!rules.ok()) return Status::InvalidArgument(rules.message());
  return engine;
}

}  // namespace hybridgraph
