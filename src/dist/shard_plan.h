#ifndef COANE_DIST_SHARD_PLAN_H_
#define COANE_DIST_SHARD_PLAN_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "core/coane_config.h"

namespace coane {
namespace dist {

/// The static contract of one distributed training run (DESIGN.md §8):
/// how many shards, how they derive their configs from the base config,
/// how many epochs one round covers, and how many shards a round needs
/// before it may commit. Everything here is decided once, written to
/// `plan.tsv` in the work directory, and verified by every worker before
/// it trains — a worker launched with mismatched flags fails fast with
/// kFailedPrecondition instead of poisoning a merge.
///
/// Sharding model: every shard trains the full graph but walks it with an
/// independent RNG stream (SplitSeed(base.seed, shard)), so N shards
/// explore N times the walk/context evidence of a single run — the
/// PANE-style decomposition where shard-local work plus periodic
/// parameter averaging stands in for one giant run. With num_shards == 1
/// the shard config IS the base config (same seed), which is what makes
/// `--shards=1` byte-identical to plain single-process training.
struct ShardPlan {
  int num_shards = 1;
  /// Minimum shards whose round outputs must verify before the round
  /// commits; rounds with fewer available shards than num_shards but at
  /// least quorum commit *degraded* (recorded in the round log).
  int quorum = 1;
  /// Epochs each shard trains between parameter-averaging barriers.
  int round_epochs = 1;
  /// Base hyperparameters; base.max_epochs is the total epoch budget and
  /// base.seed the master seed.
  CoaneConfig base;

  int total_epochs() const { return base.max_epochs; }
  /// ceil(total_epochs / round_epochs); the final round may be short.
  int num_rounds() const;
  /// The epochs_done value every shard must reach to finish `round`.
  int RoundEndEpoch(int round) const;
};

/// Shape sanity: positive shard/round counts, 1 <= quorum <= num_shards,
/// positive epoch budget.
Status ValidatePlan(const ShardPlan& plan);

/// The config shard `shard` trains with. Identity for num_shards == 1;
/// otherwise the base config with seed = SplitSeed(base.seed, shard) so
/// the walk/context streams of distinct shards are independent.
CoaneConfig ShardConfig(const ShardPlan& plan, int shard);

/// FNV-1a digest of everything that shapes the exchanged artifacts:
/// ConfigFingerprint(base) mixed with num_shards and round_epochs.
/// Runtime knobs (quorum, deadlines, restart budgets) are deliberately
/// excluded — retuning them between a crash and a resume is always
/// legal, like --threads. This fingerprint stamps every manifest entry
/// and round record of the run.
uint64_t PlanFingerprint(const ShardPlan& plan);

// --- Work-directory layout -------------------------------------------
//
// work_dir/
//   plan.tsv                 coordinator-written, worker-verified
//   rounds.tsv               round log (dist/round_log.h)
//   manifest.tsv             coordinator manifest (merged artifacts)
//   round_<r>/merged.ckpt    averaged parameters at the round barrier
//   round_<r>/merged.emb     averaged embeddings (final round -> --out)
//   shards/<s>/shard.ckpt    worker-private crash-resume checkpoint
//   shards/<s>/manifest.tsv  worker manifest (publish attestations)
//   shards/<s>/heartbeat     lease file; mtime is the liveness signal
//   shards/<s>/round_<r>.ckpt / .emb   published round outputs

std::string PlanPath(const std::string& work_dir);
std::string RoundLogPath(const std::string& work_dir);
std::string CoordinatorManifestPath(const std::string& work_dir);
std::string RoundDir(const std::string& work_dir, int round);
std::string MergedModelPath(const std::string& work_dir, int round);
std::string MergedEmbeddingsPath(const std::string& work_dir, int round);
std::string ShardDir(const std::string& work_dir, int shard);
std::string ShardCheckpointPath(const std::string& work_dir, int shard);
std::string ShardManifestPath(const std::string& work_dir, int shard);
std::string ShardHeartbeatPath(const std::string& work_dir, int shard);
std::string ShardRoundModelPath(const std::string& work_dir, int shard,
                                int round);
std::string ShardRoundEmbeddingsPath(const std::string& work_dir,
                                     int shard, int round);

// Manifest `kind` strings. The round number is part of the kind, which
// is the round-sequence gate: a stale artifact left over from an
// earlier incarnation can never satisfy a lookup for the current round.
std::string ShardCheckpointKind();
std::string RoundModelKind(int round);
std::string RoundEmbeddingsKind(int round);
std::string MergedModelKind(int round);
std::string MergedEmbeddingsKind(int round);

/// mkdir -p: creates `path` and any missing parents (0755); an already
/// existing directory is success. kIoError (errno text) otherwise.
Status MakeDirs(const std::string& path);

/// Writes the plan contract to PlanPath(work_dir) atomically, sealed with
/// SealText (common/checksum.h):
///
///   COANE-PLAN v1
///   num_shards\t<n> ... (quorum, round_epochs, total_epochs)
///   fingerprint\t<hex16>
Status SavePlanFile(const std::string& work_dir, const ShardPlan& plan);

/// Verifies that the plan file at PlanPath(work_dir) describes `plan`:
/// kNotFound when absent, kDataLoss for a torn/corrupt file,
/// kFailedPrecondition when shape or fingerprint disagree (another run
/// owns this work directory), OK on an exact match.
Status VerifyPlanFile(const std::string& work_dir, const ShardPlan& plan);

}  // namespace dist
}  // namespace coane

#endif  // COANE_DIST_SHARD_PLAN_H_
