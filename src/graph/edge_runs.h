// The edge-run record: the one byte format behind both edge layouts the
// paper stores (Sec 5.2), the push-side adjacency blocks and the VE-BLOCK
// fragment blobs (Sec 4.1).
//
//   run             fixed32 src | varint n | n x (fixed32 dst | float w)
//   adjacency block one run per vertex of the Vblock, in id order, empty
//                   lists included; nothing else
//   fragment blob   varint run count, then runs with strictly ascending
//                   sources and at least one edge each
//
// Only this module encodes or decodes the record: a writer that tallies the
// cost model's byte split, one validating walker that views edges in place,
// and the edge_delta.h merge behind every store's ingest and compaction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/edge_delta.h"
#include "graph/types.h"
#include "util/buffer.h"
#include "util/codec.h"
#include "util/status.h"

namespace hybridgraph {

/// What a blob of runs holds, and the byte split the cost model prices:
/// fragment auxiliary data IO(F) (4 + VarintLength(n) per run, plus a
/// fragment blob's count varint) and edge payload IO(E) (8 bytes per edge).
struct EblockIndex {
  uint32_t num_fragments = 0;
  uint64_t aux_bytes = 0;
  uint64_t edge_bytes = 0;
  uint64_t num_edges = 0;

  /// Empty Eblocks are not stored at all, so zero runs are zero bytes.
  uint64_t total_bytes() const {
    return num_fragments == 0 ? 0 : aux_bytes + edge_bytes;
  }
};

/// The n edges of one run, viewed in place; range-for decodes each Edge.
class EdgeSpan {
 public:
  class Iterator {
   public:
    explicit Iterator(const uint8_t* p) : p_(p) {}
    Edge operator*() const {
      Edge e{DecodeFixed<uint32_t>(p_), 0.0f};
      const uint32_t bits = DecodeFixed<uint32_t>(p_ + 4);
      std::memcpy(&e.weight, &bits, sizeof(e.weight));
      return e;
    }
    Iterator& operator++() {
      p_ += kEdgeEncodedSize;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return p_ != o.p_; }

   private:
    const uint8_t* p_;
  };

  EdgeSpan() = default;
  EdgeSpan(const uint8_t* data, uint64_t n) : data_(data), n_(n) {}

  uint64_t size() const { return n_; }
  Iterator begin() const { return Iterator(data_); }
  Iterator end() const { return Iterator(data_ + n_ * kEdgeEncodedSize); }
  /// The encoded edges, for copying a run unchanged.
  Slice bytes() const { return Slice(data_, n_ * kEdgeEncodedSize); }

 private:
  const uint8_t* data_ = nullptr;
  uint64_t n_ = 0;
};

/// One run as the walker yields it.
struct EdgeRun {
  VertexId src = 0;
  EdgeSpan edges;
  size_t offset = 0;  ///< byte offset of the run's src field in its blob
};

/// \brief The one reader of edge-run blobs: yields each run without
/// allocating, after checking it against the caller's ranges.
///
/// Truncation, a count the remaining bytes cannot hold, trailing bytes, a
/// source outside `src` (or out of the layout's order) and a destination
/// outside `dst` all stop the walk with Corruption before the run is
/// yielded, so a yielded id can index per-vertex state directly.
class EdgeRunWalker {
 public:
  /// A walker with no runs (a cell that holds no blob).
  EdgeRunWalker() : dec_(Slice()) {}

  /// An adjacency block of the Vblock `src`: run i's source is src.begin + i.
  static EdgeRunWalker Adjacency(Slice block, VertexRange src,
                                 VertexRange dst) {
    return EdgeRunWalker(block, src, dst, /*dense=*/true);
  }
  /// A fragment blob: a count varint, then runs with ascending sources.
  static EdgeRunWalker Fragments(Slice blob, VertexRange src, VertexRange dst) {
    return EdgeRunWalker(blob, src, dst, /*dense=*/false);
  }

  /// Steps to the next run. False at the end of the blob or at the first
  /// corrupt byte; status() tells which.
  bool Next(EdgeRun* run);
  const Status& status() const { return status_; }

 private:
  EdgeRunWalker(Slice blob, VertexRange src, VertexRange dst, bool dense);
  bool Fail(const char* what);

  Decoder dec_;
  uint64_t left_ = 0;  // runs still to yield
  bool dense_ = false;
  VertexId next_src_ = 0;  // the lowest (adjacency: the only) next source
  VertexRange src_;
  VertexRange dst_;
  Status status_;
};

/// The run at `offset` of a blob an EdgeRunWalker has walked without error.
EdgeRun RunAt(Slice blob, size_t offset);

/// \brief Appends runs to a byte vector and tallies them as an EblockIndex.
class EdgeRunWriter {
 public:
  /// Writes into `*out`, which is cleared first.
  explicit EdgeRunWriter(std::vector<uint8_t>* out) : out_(out) {
    out_->clear();
  }

  /// Appends the run (src, edge_at(0), ..., edge_at(n - 1)).
  template <typename EdgeAt>
  void AddRun(VertexId src, uint64_t n, EdgeAt&& edge_at) {
    uint8_t* p = AddHeader(src, n);
    for (uint64_t i = 0; i < n; ++i, p += kEdgeEncodedSize) {
      const Edge e = edge_at(i);
      uint32_t bits;
      std::memcpy(&bits, &e.weight, sizeof(bits));
      EncodeFixed<uint32_t>(p, e.dst);
      EncodeFixed<uint32_t>(p + 4, bits);
    }
  }
  /// Appends a run unchanged.
  void AddRun(VertexId src, EdgeSpan edges) {
    std::memcpy(AddHeader(src, edges.size()), edges.bytes().data(),
                edges.bytes().size());
  }

  /// Fragment layout: puts the run-count varint in front of the runs.
  void FinishFragments();

  const EblockIndex& index() const { return index_; }

 private:
  /// Writes the run header and returns where its n edges go.
  uint8_t* AddHeader(VertexId src, uint64_t n);

  std::vector<uint8_t>* out_;
  EblockIndex index_;
};

/// Applies `deltas` to the runs `base` yields with the edge_delta.h rules —
/// each source's deltas in their order in `deltas`, an insert appends, a
/// delete drops every live match — and writes every resulting run to `out`,
/// sources ascending. An adjacency block keeps a vertex whose list empties
/// (`keep_empty`); a fragment blob drops it. Per-source out-degree and
/// per-destination in-degree changes accumulate into the optional maps.
/// Fails with the walker's status when `base` is corrupt.
Status MergeEdgeRuns(EdgeRunWalker base, const std::vector<EdgeDelta>& deltas,
                     bool keep_empty, EdgeRunWriter* out,
                     DegreeDeltaMap* out_degree, DegreeDeltaMap* in_degree);

}  // namespace hybridgraph
