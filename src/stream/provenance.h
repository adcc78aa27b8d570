#ifndef COANE_STREAM_PROVENANCE_H_
#define COANE_STREAM_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/attr_impute.h"
#include "graph/graph.h"

namespace coane {
namespace stream {

/// The provenance sidecar a publisher writes next to each published
/// embedding file (`<embeddings>.pub`): which log prefix the artifact was
/// trained on, the chained graph fingerprint at that position, and which
/// rows were unobserved at train time. The serving layer loads it to
/// gate installs by log position, surface freshness in INFO/STATS, and
/// answer queries for unobserved nodes with NotFound instead of a vector
/// that is pure imputation.
///
/// On-disk format (text, atomic write, sealed with SealText from
/// common/checksum.h):
///
///   COANE-PUB v1
///   log_seq <u64>
///   chain_fingerprint <hex16>
///   mask_fingerprint <hex16>
///   config_fingerprint <hex16>
///   created_unix_ms <i64>
///   missing_attrs <policy-name>
///   unobserved <count> <id> <id> ...
struct PublishInfo {
  /// Sequence of the last mutation folded into the trained graph (0 =
  /// the initial full build before any mutation).
  uint64_t log_seq = 0;
  /// GraphFingerprint of the base graph folded through every applied
  /// mutation (graph_apply.h) — chains graph state to log position.
  uint64_t chain_fingerprint = 0;
  /// AttrMaskFingerprint of the trained graph (0 = complete data).
  uint64_t mask_fingerprint = 0;
  /// StreamFingerprint(config, log_seq, chain) — what the publisher
  /// records in the artifact manifest for this embedding.
  uint64_t config_fingerprint = 0;
  /// Wall-clock publish time; snapshot age in STATS. Excluded from every
  /// fingerprint and determinism comparison.
  int64_t created_unix_ms = 0;
  MissingAttrPolicy missing_attrs = MissingAttrPolicy::kZero;
  /// Node ids whose attribute rows were unobserved at train time, sorted
  /// ascending. Their embeddings exist (imputation filled the rows) but
  /// the serving layer refuses to answer for them.
  std::vector<NodeId> unobserved;
};

/// Canonical sidecar path: `embeddings_path + ".pub"`.
std::string PublishInfoPathFor(const std::string& embeddings_path);

/// Extends a config fingerprint to cover the log position: folds
/// (log_seq, chain_fingerprint) into `config_fingerprint` (FNV-1a). Two
/// publishes of the same config at different log positions — or at the
/// same position via different mutation histories — get different
/// manifest fingerprints, so a stale artifact reads as stale.
uint64_t StreamFingerprint(uint64_t config_fingerprint, uint64_t log_seq,
                           uint64_t chain_fingerprint);

/// Writes the sidecar atomically. Fault point: "stream.pub_save".
Status SavePublishInfo(const PublishInfo& info, const std::string& path);

/// Reads a sidecar written by SavePublishInfo; kDataLoss on any CRC,
/// framing, or ordering defect (unobserved ids must be sorted unique).
Result<PublishInfo> LoadPublishInfo(const std::string& path);

}  // namespace stream
}  // namespace coane

#endif  // COANE_STREAM_PROVENANCE_H_
