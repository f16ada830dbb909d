// Disk spill for push-mode messages (Giraph-style).
//
// When the receiver-side message buffer B_i overflows, the buffered messages
// are sorted by destination vertex and written out as a run. At the start of
// the next superstep all runs are k-way merged so each vertex sees its
// messages grouped together. Run writes are metered as RANDOM writes — this
// is exactly the "poor temporal locality of messages among destination
// vertices, caused by writing data randomly" cost the paper attributes to
// push — while merge reads are sequential (the 2·IO(M_disk) term of Eq. 7
// splits into IO(M_disk)/s_rw + IO(M_disk)/s_sr in Eq. 11).
//
// The merge is STREAMING: each run is read through a fixed-size buffer
// (MergeIterator), so the drain holds at most
//   num_runs × buffer_bytes_per_run
// of run data in memory at any moment, never the full spilled volume — the
// discipline that keeps push's memory at B_i + merge buffers instead of
// O(M_disk) (GraphD/PartitionedVC-style external-memory access).
//
// Run format (unchanged from the materializing implementation):
//   fixed64 entry_count | entry_count × (fixed32 dst | payload_size bytes)
// Every run is validated against this shape before any byte of it is
// decoded; a truncated or resized run yields Status::Corruption, never an
// out-of-bounds read.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/prefetch.h"
#include "io/storage.h"
#include "util/codec.h"
#include "util/record_slab.h"
#include "util/status.h"

namespace hybridgraph {

/// \brief Writes sorted runs of messages and streams them back merged.
class MessageSpill {
 public:
  /// Per-run merge buffer used when no explicit size is given
  /// (JobConfig::IoConfig::spill_merge_buffer_bytes is the engine-facing
  /// knob).
  static constexpr uint64_t kDefaultMergeBufferBytes = 64 * 1024;

  /// \param storage metered storage of the owning node.
  /// \param key_prefix unique per (node, superstep parity) to avoid clashes.
  /// \param payload_size fixed serialized size of one message value.
  MessageSpill(StorageService* storage, std::string key_prefix, size_t payload_size);

  /// Writes `records` (whole `[fixed32 dst | payload]` records, e.g. a
  /// RecordSlab's bytes or a slice of a wire batch) as one run ordered by
  /// destination, ties in input order. Cleanup-safe: if the write or sync
  /// fails, the partially written run blob is deleted before the error is
  /// returned, so no orphaned `<prefix>/run-*` key survives.
  Status SpillRun(Slice records);

  /// Number of runs written so far.
  size_t num_runs() const { return num_runs_; }
  /// Entries stored across all runs (the number of spilled messages).
  uint64_t num_messages() const { return num_messages_; }
  /// Total bytes written to disk by this spill.
  uint64_t bytes_written() const { return bytes_written_; }

  /// \brief Bounded-memory k-way merge over the spilled runs.
  ///
  /// Emits entries grouped by ascending destination; ties across runs are
  /// broken by run index, and within a run by spill position, so the merged
  /// order is a pure function of the spill order (deterministic across
  /// thread counts). Runs are ordered by a loser tree over the unique keys
  /// `(head dst << 32) | run index`. Reads are metered sequential and flow
  /// through fixed per-run buffers; resident run data never exceeds
  /// buffer_bytes() plus the one entry currently exposed.
  class MergeIterator {
   public:
    /// True while dst()/payload() describe a merged entry; false at the end
    /// and after any error from Next().
    bool Valid() const { return valid_; }
    /// Current merged entry; the payload lives in one fixed scratch slot.
    uint32_t dst() const { return current_dst_; }
    const uint8_t* payload() const { return current_payload_.data(); }
    /// Advances to the next merged entry; Valid() turns false at the end.
    Status Next();

    /// Entries decoded from disk so far (= bytes consumed / record size).
    uint64_t entries_read() const { return entries_read_; }
    /// Fixed buffer allocation of this merge: num_runs × per-run chunk.
    uint64_t buffer_bytes() const { return buffer_bytes_; }
    /// Peak number of spill entries resident in memory at once (buffered
    /// run data plus the current entry). Bounded by
    /// num_runs × (per-run buffer / record size) + 1.
    uint64_t peak_resident_entries() const { return peak_resident_entries_; }

   private:
    friend class MessageSpill;

    /// Streaming view of one run: a window of `chunk_bytes_` over the blob.
    struct RunCursor {
      std::string key;
      uint64_t file_size = 0;   ///< validated blob size
      uint64_t file_pos = 0;    ///< next byte to read from storage
      uint64_t disk_entries = 0;///< entries not yet loaded into the buffer
      std::vector<uint8_t> buf; ///< current chunk
      size_t buf_pos = 0;       ///< head record offset within buf
    };

    /// A key is `(head dst << 32) | run index`. A run whose records are all
    /// consumed keys as kExhausted | run index, above every live key (a live
    /// key's bit 31 is clear, even at dst 0xFFFFFFFF).
    static constexpr uint64_t kRunMask = 0x7FFFFFFF;
    static constexpr uint64_t kExhausted = 0xFFFFFFFF80000000;

    MergeIterator(StorageService* storage, const MessageSpill* spill,
                  uint64_t buffer_bytes_per_run, ReadPipeline* pipeline);
    Status Open();
    /// Loads the run's next chunk.
    Status Refill(RunCursor* rc);
    /// The key of run `ri`'s head record.
    uint64_t HeadKey(size_t ri) const;
    /// Stages the run's next chunk on the pipeline (no-op without one), so
    /// the chunk after the one just loaded reads in the background while the
    /// merge consumes the current one — per-run double buffering.
    void ScheduleNextChunk(const RunCursor& rc);
    /// Consumes the head record of the winning run (refilling as needed)
    /// and replays its next key up the tree.
    Status ConsumeWinner();
    /// Plays the runs' keys from the leaves up; tree_[0] becomes the winner.
    void BuildTree(const std::vector<uint64_t>& leaves);
    /// Replays run `ri`'s new `key` from its leaf to the root. Only the
    /// winner's key may change between replays.
    void Replay(size_t ri, uint64_t key);
    /// Loads the next merged entry into the current slot.
    Status PrimeNext();

    StorageService* storage_;
    ReadPipeline* pipeline_;  ///< null = all reads synchronous
    size_t payload_size_;
    size_t record_size_;
    uint64_t chunk_bytes_ = 0;
    uint64_t buffer_bytes_ = 0;

    std::vector<RunCursor> runs_;
    // Loser tree over the runs' keys. The keys are unique, and their order
    // IS the determinism guarantee: equal destinations always drain in run
    // order. tree_[0] is the winning key; tree_[n] for n in [1, runs) is the
    // losing key at internal node n, whose children are nodes 2n and 2n+1,
    // run r being leaf runs + r.
    std::vector<uint64_t> tree_;

    uint32_t current_dst_ = 0;
    std::vector<uint8_t> current_payload_;
    bool valid_ = false;
    uint64_t entries_read_ = 0;
    uint64_t resident_entries_ = 0;
    uint64_t peak_resident_entries_ = 0;
  };

  /// Opens a streaming merge over all runs written so far. Every run is
  /// shape-validated up front (header count vs. blob size), so a truncated
  /// or bit-flipped run surfaces as Status::Corruption here or from Next(),
  /// never as an out-of-bounds read. A non-null `pipeline` double-buffers
  /// each run's next chunk in the background (modeled read bytes are
  /// unchanged — see ReadPipeline).
  Result<std::unique_ptr<MergeIterator>> NewMergeIterator(
      uint64_t buffer_bytes_per_run, ReadPipeline* pipeline = nullptr);

  /// Stages every run's FIRST merge chunk on `pipeline` (no-op without one),
  /// shaped exactly like the opening Refill of a NewMergeIterator created
  /// with the same per-run buffer — the drain-overlap warmup called one
  /// superstep before the merge. Safe to call speculatively: unclaimed
  /// chunks are dropped on eviction, Clear() or pipeline shutdown.
  void WarmupMerge(uint64_t buffer_bytes_per_run, ReadPipeline* pipeline) const;

  /// Convenience wrapper: streams the merge (bounded buffers) and appends
  /// every entry, grouped by ascending destination, to `*out`. Output is
  /// materialized — prefer NewMergeIterator on memory-bounded paths (the
  /// engine's inbox drain); this remains for checkpoints and tests.
  Status MergeReadAll(RecordSlab* out);

  /// Deletes every blob under the key prefix — registered runs AND any
  /// orphan left by an earlier crash between write and registration — and
  /// resets state for reuse.
  Status Clear();

 private:
  std::string RunKey(size_t i) const;
  /// Leaves sort_keys_ holding `(dst − min dst) << 32 | position` for the
  /// `n` records in stable destination order.
  void SortByDst(const uint8_t* records, size_t n);

  StorageService* storage_;
  std::string key_prefix_;
  size_t payload_size_;
  size_t num_runs_ = 0;
  uint64_t num_messages_ = 0;
  uint64_t bytes_written_ = 0;
  // SpillRun scratch, reused by every run: the radix sort's key arrays and
  // digit counts, and the run blob being written.
  std::vector<uint64_t> sort_keys_;
  std::vector<uint64_t> sort_tmp_;
  std::vector<uint32_t> digit_counts_;
  std::vector<uint8_t> run_bytes_;
};

}  // namespace hybridgraph
