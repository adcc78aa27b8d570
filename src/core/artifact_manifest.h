#ifndef COANE_CORE_ARTIFACT_MANIFEST_H_
#define COANE_CORE_ARTIFACT_MANIFEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace coane {

/// One recorded pipeline output: a checkpoint, an embeddings file, a walk
/// or context dump. `path` is stored verbatim (the pipeline passes the
/// same path on every run, so restart lookups match by string equality);
/// `config_fingerprint` ties the artifact to the run configuration that
/// produced it (ConfigFingerprint in core/checkpoint.h), so an artifact
/// from a different config reads as *stale*, not merely present.
struct ArtifactEntry {
  std::string kind;   // "checkpoint", "embeddings", ...
  std::string path;
  uint64_t size_bytes = 0;
  uint32_t crc32 = 0;
  uint64_t config_fingerprint = 0;
};

/// Durable record of every artifact a run has produced, written via
/// WriteFileAtomic next to the artifacts it describes. On restart the
/// pipeline verifies each artifact against its entry before trusting it:
/// valid artifacts are reused, corrupt or stale ones are recomputed.
///
/// On-disk format (tab-separated text, one artifact per line, sealed
/// with SealText from common/checksum.h — the manifest guards the
/// artifacts, the footer guards the manifest):
///
///   COANE-MANIFEST v1
///   <kind>\t<path>\t<size>\t<crc32 hex8>\t<fingerprint hex16>
///   ...
///
/// Paths containing tab or newline characters cannot be recorded
/// (Record rejects them). Load returns kDataLoss for any structural or
/// checksum defect, so a torn or hand-edited manifest is never trusted.
class ArtifactManifest {
 public:
  /// Inserts `entry`, replacing any existing entry with the same
  /// (kind, path). Returns InvalidArgument for unrepresentable fields
  /// (empty kind/path, embedded tab/newline).
  Status Record(const ArtifactEntry& entry);

  /// The entry for (kind, path), or nullptr. The pointer is invalidated
  /// by the next Record.
  const ArtifactEntry* Find(const std::string& kind,
                            const std::string& path) const;

  const std::vector<ArtifactEntry>& entries() const { return entries_; }

  /// Serializes atomically to `path`. Fault point: "manifest.write".
  Status Save(const std::string& path) const;

  /// Parses and verifies `path`. kIoError when unreadable; kDataLoss for
  /// a bad header, malformed line, or footer CRC mismatch.
  static Result<ArtifactManifest> Load(const std::string& path);

 private:
  std::vector<ArtifactEntry> entries_;
};

/// Stats the file at `path` and computes its CRC-32, returning the entry
/// to record. kIoError when the file cannot be read.
Result<ArtifactEntry> DescribeArtifact(const std::string& kind,
                                       const std::string& path,
                                       uint64_t config_fingerprint);

/// Re-reads `entry.path` and compares size and CRC against the entry.
/// Returns kNotFound when the file is missing, kDataLoss (naming the
/// path) when the bytes differ from what was recorded, OK when the
/// artifact is intact.
Status VerifyArtifact(const ArtifactEntry& entry);

/// VerifyArtifact plus a staleness check: an intact artifact recorded
/// under a different config fingerprint returns kFailedPrecondition —
/// the bytes are fine but belong to another run configuration.
Status VerifyArtifact(const ArtifactEntry& entry,
                      uint64_t expected_fingerprint);

/// The one-call trust gate consumers run before acting on a published
/// artifact: loads the manifest at `manifest_path`, looks up the
/// (kind, artifact_path) entry, and verifies the artifact's bytes against
/// it (plus the fingerprint staleness check when `expected_fingerprint`
/// is non-null). Unlike the per-entry VerifyArtifact overloads, an
/// unrecorded artifact is an error here (kNotFound): a reader that asked
/// for verification must not silently fall back to trusting unattested
/// bytes. An unreadable or corrupt manifest keeps Load's own code
/// (kIoError / kDataLoss) — it is a broken attestation, not a missing
/// claim. Used by the serving layer before every snapshot build, and by
/// `--resume` in the CLI (which treats only kNotFound as "no claim" at
/// the call site).
Status VerifyArtifactAgainstManifest(const std::string& manifest_path,
                                     const std::string& kind,
                                     const std::string& artifact_path,
                                     const uint64_t* expected_fingerprint =
                                         nullptr);

}  // namespace coane

#endif  // COANE_CORE_ARTIFACT_MANIFEST_H_
