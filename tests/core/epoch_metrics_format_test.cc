// Pins the exact bytes of the per-epoch metrics CSV and JSON: hg_serve writes
// them to --metrics-csv / --metrics-json, and STATS ships the JSON over the
// wire, so a formatting change is a protocol change.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/epoch_driver.h"

namespace hybridgraph {
namespace {

EpochMetrics ColdEpoch() {
  EpochMetrics m;
  m.epoch = 0;
  m.timestamp = 7;
  m.batch_deltas = 16;
  m.inserts = 13;
  m.deletes = 3;
  m.touched_vertices = 29;
  m.warm = false;
  m.supersteps = 12;
  m.ingest_wall_s = 0.0125;
  m.converge_wall_s = 1.5;
  m.modeled_seconds = 2.25;
  m.read_bytes = 1048576;
  m.write_bytes = 4096;
  m.net_bytes = 123456789012ULL;
  m.delta_runs = 5;
  m.delta_bytes = 640;
  return m;
}

EpochMetrics WarmEpoch() {
  EpochMetrics m;
  m.epoch = 1;
  m.timestamp = 8;
  m.batch_deltas = 64;
  m.inserts = 64;
  m.deletes = 0;
  m.touched_vertices = 100;
  m.warm = true;
  m.supersteps = 3;
  m.ingest_wall_s = 0.000001;
  m.converge_wall_s = 0.1234567;
  m.modeled_seconds = 1e-7;
  m.read_bytes = 0;
  m.write_bytes = 0;
  m.net_bytes = 18446744073709551615ULL;
  m.delta_runs = 0;
  m.delta_bytes = 0;
  return m;
}

TEST(EpochMetricsFormat, CsvHeaderPinned) {
  EXPECT_EQ(EpochMetricsCsvHeader(),
            "epoch,timestamp,batch_deltas,inserts,deletes,touched_vertices,"
            "warm,supersteps,ingest_wall_s,converge_wall_s,modeled_seconds,"
            "read_bytes,write_bytes,net_bytes,delta_runs,delta_bytes");
}

TEST(EpochMetricsFormat, CsvRowsPinned) {
  EXPECT_EQ(EpochMetricsCsvRow(ColdEpoch()),
            "0,7,16,13,3,29,0,12,0.012500,1.500000,2.250000,1048576,4096,"
            "123456789012,5,640");
  EXPECT_EQ(EpochMetricsCsvRow(WarmEpoch()),
            "1,8,64,64,0,100,1,3,0.000001,0.123457,0.000000,0,0,"
            "18446744073709551615,0,0");
}

TEST(EpochMetricsFormat, JsonBytesPinned) {
  EXPECT_EQ(EpochMetricsJson({}), "[\n]");
  EXPECT_EQ(
      EpochMetricsJson({ColdEpoch(), WarmEpoch()}),
      "[\n"
      "  {\"epoch\": 0, \"timestamp\": 7, \"batch_deltas\": 16, "
      "\"inserts\": 13, \"deletes\": 3, \"touched_vertices\": 29, "
      "\"warm\": false, \"supersteps\": 12, \"ingest_wall_s\": 0.012500, "
      "\"converge_wall_s\": 1.500000, \"modeled_seconds\": 2.250000, "
      "\"read_bytes\": 1048576, \"write_bytes\": 4096, "
      "\"net_bytes\": 123456789012, \"delta_runs\": 5, \"delta_bytes\": 640},\n"
      "  {\"epoch\": 1, \"timestamp\": 8, \"batch_deltas\": 64, "
      "\"inserts\": 64, \"deletes\": 0, \"touched_vertices\": 100, "
      "\"warm\": true, \"supersteps\": 3, \"ingest_wall_s\": 0.000001, "
      "\"converge_wall_s\": 0.123457, \"modeled_seconds\": 0.000000, "
      "\"read_bytes\": 0, \"write_bytes\": 0, "
      "\"net_bytes\": 18446744073709551615, \"delta_runs\": 0, "
      "\"delta_bytes\": 0}\n"
      "]");
}

}  // namespace
}  // namespace hybridgraph
