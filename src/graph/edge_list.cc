#include "graph/edge_list.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/codec.h"
#include "util/string_util.h"

namespace hybridgraph {

namespace {
constexpr uint32_t kBinaryMagic = 0x48474246;  // "HGBF"
}

std::vector<uint32_t> EdgeListGraph::OutDegrees() const {
  std::vector<uint32_t> deg(num_vertices, 0);
  for (const auto& e : edges) ++deg[e.src];
  return deg;
}

std::vector<uint32_t> EdgeListGraph::InDegrees() const {
  std::vector<uint32_t> deg(num_vertices, 0);
  for (const auto& e : edges) ++deg[e.dst];
  return deg;
}

uint32_t EdgeListGraph::MaxOutDegree() const {
  auto deg = OutDegrees();
  return deg.empty() ? 0 : *std::max_element(deg.begin(), deg.end());
}

void EdgeListGraph::SortBySource() {
  std::sort(edges.begin(), edges.end(), [](const RawEdge& a, const RawEdge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
}

Status EdgeListGraph::Validate() const {
  for (const auto& e : edges) {
    if (e.src >= num_vertices || e.dst >= num_vertices) {
      return Status::InvalidArgument(
          StringFormat("edge (%u,%u) out of range for %llu vertices", e.src,
                       e.dst, static_cast<unsigned long long>(num_vertices)));
    }
  }
  return Status::OK();
}

Result<EdgeListGraph> ParseEdgeListText(const std::string& text) {
  EdgeListGraph g;
  uint64_t declared_vertices = 0;
  uint64_t max_endpoint = 0;
  bool has_edges = false;

  std::istringstream in(text);
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    line = TrimString(line);
    if (line.empty()) continue;
    if (line[0] == '#' || line[0] == '%') {
      // Optional "# vertices: N" header.
      const std::string key = "vertices:";
      auto pos = line.find(key);
      if (pos != std::string::npos) {
        declared_vertices =
            std::strtoull(line.c_str() + pos + key.size(), nullptr, 10);
      }
      continue;
    }
    std::istringstream ls(line);
    uint64_t src, dst;
    double w = 1.0;
    if (!(ls >> src >> dst)) {
      return Status::Corruption(
          StringFormat("bad edge line %zu: '%s'", lineno, line.c_str()));
    }
    ls >> w;  // optional weight
    if (src > UINT32_MAX || dst > UINT32_MAX) {
      return Status::InvalidArgument("vertex id exceeds 32 bits");
    }
    g.edges.push_back({static_cast<VertexId>(src), static_cast<VertexId>(dst),
                       static_cast<float>(w)});
    max_endpoint = std::max(max_endpoint, std::max(src, dst));
    has_edges = true;
  }
  g.num_vertices =
      std::max(declared_vertices, has_edges ? max_endpoint + 1 : uint64_t{0});
  return g;
}

std::string WriteEdgeListText(const EdgeListGraph& graph) {
  std::string out = StringFormat("# vertices: %llu\n",
                                 static_cast<unsigned long long>(graph.num_vertices));
  for (const auto& e : graph.edges) {
    out += StringFormat("%u %u %g\n", e.src, e.dst, e.weight);
  }
  return out;
}

std::vector<uint8_t> EncodeEdgeListBinary(const EdgeListGraph& graph) {
  Buffer buf;
  Encoder enc(&buf);
  enc.PutFixed32(kBinaryMagic);
  enc.PutFixed64(graph.num_vertices);
  enc.PutFixed64(graph.edges.size());
  for (const auto& e : graph.edges) {
    enc.PutFixed32(e.src);
    enc.PutFixed32(e.dst);
    enc.PutFloat(e.weight);
  }
  return buf.TakeBytes();
}

Result<EdgeListGraph> DecodeEdgeListBinary(const std::vector<uint8_t>& bytes) {
  Decoder dec{Slice(bytes)};
  uint32_t magic = 0;
  HG_RETURN_IF_ERROR(dec.GetFixed32(&magic));
  if (magic != kBinaryMagic) return Status::Corruption("bad edge list magic");
  EdgeListGraph g;
  uint64_t num_edges = 0;
  HG_RETURN_IF_ERROR(dec.GetFixed64(&g.num_vertices));
  HG_RETURN_IF_ERROR(dec.GetFixed64(&num_edges));
  // An edge is exactly 12 bytes, so a count the rest cannot hold is corrupt
  // (and must not reach reserve()).
  if (num_edges > dec.remaining() / 12) {
    return Status::Corruption("edge count exceeds edge list size");
  }
  g.edges.reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    RawEdge e;
    HG_RETURN_IF_ERROR(dec.GetFixed32(&e.src));
    HG_RETURN_IF_ERROR(dec.GetFixed32(&e.dst));
    HG_RETURN_IF_ERROR(dec.GetFloat(&e.weight));
    g.edges.push_back(e);
  }
  if (!dec.AtEnd()) return Status::Corruption("trailing bytes in edge list");
  return g;
}

Result<EdgeListGraph> LoadEdgeListFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return Status::NotFound("cannot open graph file: " + path);
  const std::streamsize size = f.tellg();
  f.seekg(0);
  std::vector<uint8_t> bytes(static_cast<size_t>(size));
  if (size > 0 &&
      !f.read(reinterpret_cast<char*>(bytes.data()), size)) {
    return Status::IoError("read failed: " + path);
  }
  if (bytes.size() >= 4) {
    Decoder dec{Slice(bytes)};
    uint32_t magic = 0;
    if (dec.GetFixed32(&magic).ok() && magic == kBinaryMagic) {
      return DecodeEdgeListBinary(bytes);
    }
  }
  return ParseEdgeListText(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

Status SaveEdgeListFile(const EdgeListGraph& graph, const std::string& path,
                        bool binary) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return Status::IoError("cannot open for write: " + path);
  if (binary) {
    auto bytes = EncodeEdgeListBinary(graph);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  } else {
    const std::string text = WriteEdgeListText(graph);
    f.write(text.data(), static_cast<std::streamsize>(text.size()));
  }
  return f ? Status::OK() : Status::IoError("write failed: " + path);
}

}  // namespace hybridgraph
