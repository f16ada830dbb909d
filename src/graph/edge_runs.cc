#include "graph/edge_runs.h"

#include <algorithm>
#include <numeric>

namespace hybridgraph {

namespace {

// A run header is at least 5 bytes (src + a one-byte count).
constexpr size_t kMinRunBytes = 5;

}  // namespace

EdgeRunWalker::EdgeRunWalker(Slice blob, VertexRange src, VertexRange dst,
                             bool dense)
    : dec_(blob),
      left_(dense ? src.size() : 0),
      dense_(dense),
      next_src_(src.begin),
      src_(src),
      dst_(dst) {
  if (!dense && (!dec_.GetVarint64(&left_).ok() ||
                 left_ > dec_.remaining() / kMinRunBytes)) {
    Fail("fragment count exceeds blob size");
  }
}

bool EdgeRunWalker::Fail(const char* what) {
  status_ = Status::Corruption(what);
  left_ = 0;
  dec_ = Decoder(Slice());
  return false;
}

bool EdgeRunWalker::Next(EdgeRun* run) {
  if (left_ == 0) {
    return dec_.AtEnd() ? false : Fail("trailing bytes after the last run");
  }
  const size_t offset = dec_.position();
  VertexId src = 0;
  uint64_t n = 0;
  if (!dec_.GetFixed32(&src).ok() || !dec_.GetVarint64(&n).ok() ||
      n > dec_.remaining() / kEdgeEncodedSize) {
    return Fail("truncated edge run");
  }
  if (dense_ ? src != next_src_
             : src < next_src_ || src >= src_.end || n == 0) {
    return Fail("edge run source out of order or outside its range");
  }
  Slice edges;
  dec_.GetRaw(n * kEdgeEncodedSize, &edges);
  for (uint64_t i = 0; i < n; ++i) {
    if (!dst_.Contains(DecodeFixed<uint32_t>(edges.data() + i * kEdgeEncodedSize))) {
      return Fail("edge destination outside its range");
    }
  }
  next_src_ = src + 1;
  --left_;
  *run = {src, EdgeSpan(edges.data(), n), offset};
  return true;
}

EdgeRun RunAt(Slice blob, size_t offset) {
  Decoder dec(blob.SubSlice(offset, blob.size() - offset));
  EdgeRun run{0, {}, offset};
  uint64_t n = 0;
  dec.GetFixed32(&run.src);
  dec.GetVarint64(&n);
  run.edges = EdgeSpan(blob.data() + offset + dec.position(), n);
  return run;
}

uint8_t* EdgeRunWriter::AddHeader(VertexId src, uint64_t n) {
  const size_t header = 4 + VarintLength(n);
  const size_t at = out_->size();
  out_->resize(at + header + n * kEdgeEncodedSize);
  uint8_t* p = out_->data() + at;
  EncodeFixed<uint32_t>(p, src);
  p += 4;
  uint64_t v = n;  // the count varint
  for (; v >= 0x80; v >>= 7) *p++ = static_cast<uint8_t>(v) | 0x80;
  *p++ = static_cast<uint8_t>(v);
  ++index_.num_fragments;
  index_.num_edges += n;
  index_.aux_bytes += header;
  index_.edge_bytes += n * kEdgeEncodedSize;
  return p;
}

void EdgeRunWriter::FinishFragments() {
  Buffer count;
  Encoder(&count).PutVarint64(index_.num_fragments);
  out_->insert(out_->begin(), count.data(), count.data() + count.size());
  index_.aux_bytes += count.size();
}

Status MergeEdgeRuns(EdgeRunWalker base, const std::vector<EdgeDelta>& deltas,
                     bool keep_empty, EdgeRunWriter* out,
                     DegreeDeltaMap* out_degree, DegreeDeltaMap* in_degree) {
  // Delta positions grouped by source, batch order kept within a source.
  std::vector<uint32_t> order(deltas.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return deltas[a].src < deltas[b].src;
  });
  auto next = order.begin();
  std::vector<Edge> edges;  // the edited list of one source
  EdgeRun run;
  for (bool in_base = base.Next(&run); in_base || next != order.end();) {
    if (next == order.end() || (in_base && run.src < deltas[*next].src)) {
      out->AddRun(run.src, run.edges);  // untouched: copied as stored
      in_base = base.Next(&run);
      continue;
    }
    const VertexId src = deltas[*next].src;
    edges.clear();
    if (in_base && run.src == src) {
      for (const Edge e : run.edges) edges.push_back(e);
      in_base = base.Next(&run);
    }
    for (; next != order.end() && deltas[*next].src == src; ++next) {
      const EdgeDelta& d = deltas[*next];
      int64_t change = 1;
      if (d.is_delete) {
        const auto kept = std::remove_if(
            edges.begin(), edges.end(),
            [&](const Edge& e) { return e.dst == d.dst; });
        change = -static_cast<int64_t>(edges.end() - kept);
        edges.erase(kept, edges.end());
        if (change == 0) continue;
      } else {
        edges.push_back({d.dst, d.weight});
      }
      if (out_degree != nullptr) (*out_degree)[src] += change;
      if (in_degree != nullptr) (*in_degree)[d.dst] += change;
    }
    if (!edges.empty() || keep_empty) {
      out->AddRun(src, edges.size(), [&](uint64_t i) { return edges[i]; });
    }
  }
  return base.status();
}

}  // namespace hybridgraph
