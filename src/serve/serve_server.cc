#include "serve/serve_server.h"

#include <algorithm>
#include <cstdio>

#include "util/logging.h"

namespace hybridgraph {

ServeServer::ServeServer(AnyEngine* engine, Options options)
    : engine_(engine), options_(std::move(options)) {}

ServeServer::~ServeServer() { Stop(); }

void ServeServer::RegisterHandlers(Transport* transport, NodeId node) {
  transport->RegisterHandler(
      node, RpcMethod::kServeIngest,
      [this](NodeId, Slice payload, Buffer* response) {
        EdgeBatch batch;
        HG_RETURN_IF_ERROR(DecodeIngestRequest(payload, &batch));
        // Reject before acknowledging: a queued bad batch would only fail
        // later on the epoch thread, after the client was told it landed.
        HG_RETURN_IF_ERROR(ValidateBatch(engine_->num_vertices(), batch));
        IngestResponse r;
        r.accepted = batch.deltas.size();
        r.queue_depth = SubmitBatch(std::move(batch));
        EncodeIngestResponse(r, response);
        return Status::OK();
      });
  transport->RegisterHandler(
      node, RpcMethod::kServeGet,
      [this](NodeId, Slice payload, Buffer* response) {
        uint32_t vertex = 0;
        HG_RETURN_IF_ERROR(DecodeGetRequest(payload, &vertex));
        std::shared_ptr<const Snapshot> snap = board_.Current();
        if (snap == nullptr) {
          return Status::FailedPrecondition("no snapshot published yet");
        }
        if (vertex >= snap->values.size()) {
          return Status::InvalidArgument("vertex id out of range");
        }
        GetResponse r;
        r.epoch = snap->epoch;
        r.timestamp = snap->timestamp;
        r.value = snap->values[vertex];
        EncodeGetResponse(r, response);
        return Status::OK();
      });
  transport->RegisterHandler(
      node, RpcMethod::kServeTopK,
      [this](NodeId, Slice payload, Buffer* response) {
        uint32_t k = 0;
        HG_RETURN_IF_ERROR(DecodeTopKRequest(payload, &k));
        std::shared_ptr<const Snapshot> snap = board_.Current();
        if (snap == nullptr) {
          return Status::FailedPrecondition("no snapshot published yet");
        }
        TopKResponse r;
        r.epoch = snap->epoch;
        r.timestamp = snap->timestamp;
        std::vector<uint32_t> ids(snap->values.size());
        for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
        const size_t n = std::min<size_t>(k, ids.size());
        std::partial_sort(ids.begin(), ids.begin() + n, ids.end(),
                          [&](uint32_t a, uint32_t b) {
                            if (snap->values[a] != snap->values[b]) {
                              return snap->values[a] > snap->values[b];
                            }
                            return a < b;
                          });
        r.entries.reserve(n);
        for (size_t i = 0; i < n; ++i) {
          r.entries.push_back({ids[i], snap->values[ids[i]]});
        }
        EncodeTopKResponse(r, response);
        return Status::OK();
      });
  transport->RegisterHandler(node, RpcMethod::kServeStats,
                             [this](NodeId, Slice, Buffer* response) {
                               EncodeStatsResponse(Stats(), response);
                               return Status::OK();
                             });
}

Status ServeServer::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (running_) return Status::FailedPrecondition("already started");
  }
  HG_RETURN_IF_ERROR(engine_->Run());
  HG_RETURN_IF_ERROR(PublishSnapshot(/*timestamp=*/0));
  {
    std::lock_guard<std::mutex> lock(mu_);
    running_ = true;
    stop_ = false;
  }
  epoch_thread_ = std::thread([this] { EpochLoop(); });
  return Status::OK();
}

void ServeServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (epoch_thread_.joinable()) epoch_thread_.join();
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
}

uint64_t ServeServer::SubmitBatch(EdgeBatch batch) {
  uint64_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(batch));
    ++batches_ingested_;
    depth = queue_.size();
  }
  queue_cv_.notify_one();
  return depth;
}

Status ServeServer::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [this] { return (queue_.empty() && !epoch_in_flight_) || stop_; });
  return first_error_;
}

uint64_t ServeServer::epochs_committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

uint64_t ServeServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<EpochMetrics> ServeServer::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

StatsResponse ServeServer::Stats() const {
  StatsResponse r;
  std::shared_ptr<const Snapshot> snap = board_.Current();
  if (snap != nullptr) {
    r.snapshot_epoch = snap->epoch;
    r.snapshot_timestamp = snap->timestamp;
  }
  std::lock_guard<std::mutex> lock(mu_);
  r.epochs_committed = metrics_.size();
  r.queue_depth = queue_.size();
  r.batches_ingested = batches_ingested_;
  r.staleness_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - last_publish_)
                      .count();
  r.metrics_json = EpochMetricsJson(metrics_);
  return r;
}

void ServeServer::EpochLoop() {
  for (;;) {
    EdgeBatch batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) {
        idle_cv_.notify_all();
        return;
      }
      batch = std::move(queue_.front());
      queue_.pop_front();
      epoch_in_flight_ = true;
    }

    EpochMetrics m;
    Status st = engine_->RunEpoch(batch, &m);
    if (st.ok()) st = PublishSnapshot(batch.timestamp);
    if (st.ok() && options_.compact_min_runs > 0) {
      st = engine_->CompactAll(options_.compact_min_runs);
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      if (st.ok()) {
        metrics_.push_back(m);
      } else if (first_error_.ok()) {
        first_error_ = st;
        HG_LOG(ERROR) << "epoch failed: " << st.ToString();
      }
      epoch_in_flight_ = false;
    }
    if (st.ok()) st = AppendMetricsFiles();
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (first_error_.ok()) first_error_ = st;
    }
    idle_cv_.notify_all();
  }
}

Status ServeServer::PublishSnapshot(uint64_t timestamp) {
  auto values = engine_->GatherValuesAsDouble();
  if (!values.ok()) return values.status();
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = engine_->epochs_run();
  snap->timestamp = timestamp;
  snap->values = std::move(*values);
  board_.Publish(std::move(snap));
  std::lock_guard<std::mutex> lock(mu_);
  last_publish_ = std::chrono::steady_clock::now();
  return Status::OK();
}

Status ServeServer::AppendMetricsFiles() {
  std::vector<EpochMetrics> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (options_.metrics_csv_path.empty() && options_.metrics_json_path.empty()) {
      return Status::OK();
    }
    all = metrics_;
  }
  if (!options_.metrics_csv_path.empty() && !all.empty()) {
    std::FILE* f = std::fopen(options_.metrics_csv_path.c_str(),
                              all.size() == 1 ? "w" : "a");
    if (f == nullptr) {
      return Status::IoError("cannot open " + options_.metrics_csv_path);
    }
    if (all.size() == 1) {
      std::fprintf(f, "%s\n", EpochMetricsCsvHeader().c_str());
    }
    std::fprintf(f, "%s\n", EpochMetricsCsvRow(all.back()).c_str());
    std::fclose(f);
  }
  if (!options_.metrics_json_path.empty()) {
    std::FILE* f = std::fopen(options_.metrics_json_path.c_str(), "w");
    if (f == nullptr) {
      return Status::IoError("cannot open " + options_.metrics_json_path);
    }
    std::fprintf(f, "%s\n", EpochMetricsJson(all).c_str());
    std::fclose(f);
  }
  return Status::OK();
}

}  // namespace hybridgraph
