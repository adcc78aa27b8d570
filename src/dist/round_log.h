#ifndef COANE_DIST_ROUND_LOG_H_
#define COANE_DIST_ROUND_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace coane {
namespace dist {

/// One committed round of distributed training: which shards made it
/// into the merge, which were missing (dead, straggling past the
/// deadline, or quarantined for corruption), and the CRCs of the merged
/// artifacts. `degraded` is the headline robustness signal — true
/// whenever fewer than the plan's full shard count committed.
struct RoundRecord {
  int round = 0;
  int end_epoch = 0;
  std::vector<int> committed;  // ascending shard ids that were merged
  std::vector<int> missing;    // ascending shard ids absent this round
  bool degraded = false;
  uint32_t merged_model_crc = 0;
  uint32_t merged_embeddings_crc = 0;
};

/// Durable, sealed, sequence-gated log of committed rounds
/// (`rounds.tsv` in the work directory). The log is the coordinator's
/// source of truth on restart: rounds it lists are done (their merged
/// artifacts are attested in the coordinator manifest), and the next
/// round to run is next_round(). Commit() enforces the round sequence —
/// a commit for any round other than next_round() is rejected with
/// kFailedPrecondition, so a resurrected stale coordinator (or a replay
/// of an old work dir) can never rewind or skip the round history.
///
/// Format (sealed with SealText, common/checksum.h):
///   COANE-ROUNDS v1 <plan fingerprint hex16>
///   <round>\t<end_epoch>\t<committed csv|->\t<missing csv|->\t
///       <degraded 0|1>\t<model crc hex8>\t<emb crc hex8>
///
/// The whole file is rewritten atomically on every commit; a torn write
/// therefore leaves the previous log intact, and Load rejects any
/// structural or checksum defect with kDataLoss.
class RoundLog {
 public:
  explicit RoundLog(uint64_t plan_fingerprint)
      : plan_fingerprint_(plan_fingerprint) {}

  /// Parses and verifies `path`. kIoError when unreadable, kDataLoss for
  /// corruption or a non-contiguous round sequence, kFailedPrecondition
  /// when the log belongs to a different plan fingerprint.
  static Result<RoundLog> Load(const std::string& path,
                               uint64_t plan_fingerprint);

  /// Appends `record` and rewrites `path` atomically. The record must be
  /// for exactly next_round() with consistent fields (committed
  /// non-empty, sorted, disjoint from missing).
  /// Fault point: "dist.roundlog_write".
  Status Commit(const RoundRecord& record, const std::string& path);

  const std::vector<RoundRecord>& rounds() const { return rounds_; }
  int next_round() const { return static_cast<int>(rounds_.size()); }
  uint64_t plan_fingerprint() const { return plan_fingerprint_; }

 private:
  uint64_t plan_fingerprint_;
  std::vector<RoundRecord> rounds_;
};

}  // namespace dist
}  // namespace coane

#endif  // COANE_DIST_ROUND_LOG_H_
