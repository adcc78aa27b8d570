#include "dist/shard_plan.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <utility>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/flags.h"
#include "common/os_error.h"
#include "common/parallel/rng_split.h"
#include "common/string_utils.h"
#include "core/checkpoint.h"

namespace coane {
namespace dist {
namespace {

constexpr char kHeader[] = "COANE-PLAN v1";

}  // namespace

int ShardPlan::num_rounds() const {
  if (round_epochs <= 0) return 0;
  return (total_epochs() + round_epochs - 1) / round_epochs;
}

int ShardPlan::RoundEndEpoch(int round) const {
  const int end = (round + 1) * round_epochs;
  return end < total_epochs() ? end : total_epochs();
}

Status ValidatePlan(const ShardPlan& plan) {
  if (plan.num_shards < 1) {
    return Status::InvalidArgument("plan needs at least one shard");
  }
  if (plan.quorum < 1 || plan.quorum > plan.num_shards) {
    return Status::InvalidArgument(
        "quorum must be in [1, num_shards], got " +
        std::to_string(plan.quorum) + " of " +
        std::to_string(plan.num_shards));
  }
  if (plan.round_epochs < 1) {
    return Status::InvalidArgument("round_epochs must be positive");
  }
  if (plan.total_epochs() < 1) {
    return Status::InvalidArgument("plan needs a positive epoch budget");
  }
  return Status::OK();
}

CoaneConfig ShardConfig(const ShardPlan& plan, int shard) {
  CoaneConfig config = plan.base;
  // Identity for a single shard: --shards=1 must be byte-identical to a
  // plain single-process run, so the master seed passes through
  // untouched instead of being re-derived.
  if (plan.num_shards > 1) {
    config.seed = SplitSeed(plan.base.seed, static_cast<uint64_t>(shard));
  }
  return config;
}

uint64_t PlanFingerprint(const ShardPlan& plan) {
  uint64_t h = ConfigFingerprint(plan.base);
  h = FnvMix(h, static_cast<uint64_t>(plan.num_shards));
  return FnvMix(h, static_cast<uint64_t>(plan.round_epochs));
}

std::string PlanPath(const std::string& work_dir) {
  return work_dir + "/plan.tsv";
}
std::string RoundLogPath(const std::string& work_dir) {
  return work_dir + "/rounds.tsv";
}
std::string CoordinatorManifestPath(const std::string& work_dir) {
  return work_dir + "/manifest.tsv";
}
std::string RoundDir(const std::string& work_dir, int round) {
  return work_dir + "/round_" + std::to_string(round);
}
std::string MergedModelPath(const std::string& work_dir, int round) {
  return RoundDir(work_dir, round) + "/merged.ckpt";
}
std::string MergedEmbeddingsPath(const std::string& work_dir, int round) {
  return RoundDir(work_dir, round) + "/merged.emb";
}
std::string ShardDir(const std::string& work_dir, int shard) {
  return work_dir + "/shards/" + std::to_string(shard);
}
std::string ShardCheckpointPath(const std::string& work_dir, int shard) {
  return ShardDir(work_dir, shard) + "/shard.ckpt";
}
std::string ShardManifestPath(const std::string& work_dir, int shard) {
  return ShardDir(work_dir, shard) + "/manifest.tsv";
}
std::string ShardHeartbeatPath(const std::string& work_dir, int shard) {
  return ShardDir(work_dir, shard) + "/heartbeat";
}
std::string ShardRoundModelPath(const std::string& work_dir, int shard,
                                int round) {
  return ShardDir(work_dir, shard) + "/round_" + std::to_string(round) +
         ".ckpt";
}
std::string ShardRoundEmbeddingsPath(const std::string& work_dir,
                                     int shard, int round) {
  return ShardDir(work_dir, shard) + "/round_" + std::to_string(round) +
         ".emb";
}

std::string ShardCheckpointKind() { return "shard-checkpoint"; }
std::string RoundModelKind(int round) {
  return "round:" + std::to_string(round) + ":model";
}
std::string RoundEmbeddingsKind(int round) {
  return "round:" + std::to_string(round) + ":embeddings";
}
std::string MergedModelKind(int round) {
  return "merged:" + std::to_string(round) + ":model";
}
std::string MergedEmbeddingsKind(int round) {
  return "merged:" + std::to_string(round) + ":embeddings";
}

Status MakeDirs(const std::string& path) {
  if (path.empty()) return Status::OK();
  std::string prefix;
  for (const std::string& part : Split(path, '/')) {
    if (prefix.empty() && part.empty()) {
      prefix = "/";  // absolute path root
      continue;
    }
    if (part.empty()) continue;
    prefix += (prefix.empty() || prefix == "/") ? part : "/" + part;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return ErrnoToStatus(errno, "mkdir " + prefix);
    }
  }
  return Status::OK();
}

Status SavePlanFile(const std::string& work_dir, const ShardPlan& plan) {
  COANE_RETURN_IF_ERROR(ValidatePlan(plan));
  std::string out = std::string(kHeader) + "\n";
  out += "num_shards\t" + std::to_string(plan.num_shards) + "\n";
  out += "quorum\t" + std::to_string(plan.quorum) + "\n";
  out += "round_epochs\t" + std::to_string(plan.round_epochs) + "\n";
  out += "total_epochs\t" + std::to_string(plan.total_epochs()) + "\n";
  out += "fingerprint\t" + Hex64(PlanFingerprint(plan)) + "\n";
  return WriteFileAtomic(PlanPath(work_dir), SealText(std::move(out)),
                         "dist.plan_write");
}

Status VerifyPlanFile(const std::string& work_dir, const ShardPlan& plan) {
  const std::string path = PlanPath(work_dir);
  auto raw = ReadFileToString(path);
  if (!raw.ok()) {
    return Status::NotFound("plan file " + path +
                            " is missing: " + raw.status().message());
  }
  auto body = UnsealText(raw.value(), "plan file " + path);
  if (!body.ok()) return body.status();

  int64_t num_shards = -1, quorum = -1, round_epochs = -1, total = -1;
  uint64_t fingerprint = 0;
  bool saw_fingerprint = false;
  const std::vector<std::string> lines = Split(body.value(), '\n');
  if (lines[0] != kHeader) {
    return Status::DataLoss(path + ": not a plan file (bad header)");
  }
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    if (line.empty()) continue;
    const std::vector<std::string> fields = Split(line, '\t');
    if (fields.size() != 2) {
      return Status::DataLoss(path + ": malformed plan line '" + line + "'");
    }
    bool parsed = true;
    if (fields[0] == "num_shards") {
      parsed = flags::ParseWhole(fields[1], &num_shards);
    } else if (fields[0] == "quorum") {
      parsed = flags::ParseWhole(fields[1], &quorum);
    } else if (fields[0] == "round_epochs") {
      parsed = flags::ParseWhole(fields[1], &round_epochs);
    } else if (fields[0] == "total_epochs") {
      parsed = flags::ParseWhole(fields[1], &total);
    } else if (fields[0] == "fingerprint") {
      parsed = flags::ParseWhole(fields[1], &fingerprint, 16);
      saw_fingerprint = parsed;
    }  // Unknown keys are tolerated for forward compatibility.
    if (!parsed) {
      return Status::DataLoss(path + ": unparsable plan value in '" + line +
                              "'");
    }
  }
  if (!saw_fingerprint) {
    return Status::DataLoss(path + ": plan file has no fingerprint");
  }
  if (num_shards != plan.num_shards || round_epochs != plan.round_epochs ||
      total != plan.total_epochs() ||
      fingerprint != PlanFingerprint(plan)) {
    return Status::FailedPrecondition(
        "plan file " + path + " belongs to a different run (file has " +
        std::to_string(num_shards) + " shards, " +
        std::to_string(round_epochs) + " round_epochs, " +
        std::to_string(total) + " total_epochs, fingerprint " +
        Hex64(fingerprint) + "; this run has " +
        std::to_string(plan.num_shards) + ", " +
        std::to_string(plan.round_epochs) + ", " +
        std::to_string(plan.total_epochs()) + ", " +
        Hex64(PlanFingerprint(plan)) + ")");
  }
  // quorum is a runtime knob: a mismatch is tolerated (the coordinator
  // may be restarted with a retuned quorum), but shape never is.
  (void)quorum;
  return Status::OK();
}

}  // namespace dist
}  // namespace coane
