// Umbrella public header for the HybridGraph library.
//
// Quick start (the type-erased runner covers every built-in algorithm and
// every engine mode, including the v-pull baseline):
//
//   #include "hybridgraph/hybridgraph.h"
//   using namespace hybridgraph;
//
//   EdgeListGraph g = GeneratePowerLaw(100000, 16.0, 0.8, /*seed=*/1);
//   JobConfig cfg;
//   cfg.mode = EngineMode::kHybrid;       // push | pushM | pull | b-pull | hybrid
//   cfg.num_nodes = 5;                    // simulated computational nodes
//   cfg.num_threads = 0;                  // run them on all hardware cores
//   cfg.msg_buffer_per_node = 20000;      // B_i (messages kept in memory)
//   cfg.max_supersteps = 10;
//   auto engine = MakeEngine(cfg, AlgoKind::kPageRank).ValueOrDie();
//   engine->Load(g).ok() && engine->Run().ok();
//   auto ranks = engine->GatherValuesAsDouble();  // Result<std::vector<double>>
//   const JobStats& stats = engine->stats();
//
// Streaming: MakeEpochEngine(cfg, EpochAlgoSpec{}) builds the same AnyEngine
// for a streamable program; after Load and Run, each RunEpoch(batch, &m)
// ingests one edge batch and reconverges by delta propagation.
//
// Custom vertex programs use Engine<P> directly, in any mode (see
// examples/custom_algorithm.cpp).
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the paper
// reproduction index.
#pragma once

#include "hybridgraph/any_engine.h"

#include "algos/bfs.h"
#include "algos/hits.h"
#include "algos/lpa.h"
#include "algos/pagerank.h"
#include "algos/pagerank_delta.h"
#include "algos/sa.h"
#include "algos/sssp.h"
#include "algos/wcc.h"
#include "core/aggregators.h"
#include "core/engine.h"
#include "core/recovery.h"
#include "core/job_config.h"
#include "core/program.h"
#include "core/run_metrics.h"
#include "graph/edge_list.h"
#include "graph/generator.h"
#include "graph/partition.h"
#include "util/logging.h"
#include "util/status.h"
