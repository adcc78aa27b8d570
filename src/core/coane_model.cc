#include "core/coane_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "common/stopwatch.h"
#include "core/checkpoint.h"
#include "core/objective.h"
#include "graph/attr_impute.h"
#include "la/vector_ops.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "walk/random_walk.h"

namespace coane {
namespace {

Status ValidateConfig(const CoaneConfig& c) {
  if (c.context_size < 1 || c.context_size % 2 == 0) {
    return Status::InvalidArgument("context_size must be odd and >= 1");
  }
  if (c.embedding_dim < 2 || c.embedding_dim % 2 != 0) {
    return Status::InvalidArgument("embedding_dim must be even and >= 2");
  }
  if (c.num_walks < 1 || c.walk_length < 1) {
    return Status::InvalidArgument("walk parameters must be positive");
  }
  if (c.num_negative < 0) {
    return Status::InvalidArgument("num_negative must be non-negative");
  }
  if (c.batch_size < 1) {
    return Status::InvalidArgument("batch_size must be positive");
  }
  if (c.max_epochs < 0) {
    return Status::InvalidArgument("max_epochs must be non-negative");
  }
  if (c.use_positive_loss && c.skipgram_positive &&
      c.embedding_dim % 2 != 0) {
    return Status::InvalidArgument("embedding_dim must be even");
  }
  if (c.grad_clip_norm < 0.0f) {
    return Status::InvalidArgument("grad_clip_norm must be non-negative");
  }
  if (c.divergence_max_retries < 0) {
    return Status::InvalidArgument(
        "divergence_max_retries must be non-negative");
  }
  if (!(c.divergence_lr_decay > 0.0f && c.divergence_lr_decay <= 1.0f)) {
    return Status::InvalidArgument(
        "divergence_lr_decay must be in (0, 1]");
  }
  return Status::OK();
}

bool AllFinite(const DenseMatrix& m) {
  const float* p = m.data();
  const int64_t n = m.size();
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

// One-hot identity features for the WF (no attributes) ablation.
SparseMatrix IdentityFeatures(int64_t n) {
  std::vector<SparseMatrix::Triplet> triplets;
  triplets.reserve(static_cast<size_t>(n));
  for (int64_t v = 0; v < n; ++v) triplets.push_back({v, v, 1.0f});
  return SparseMatrix::FromTriplets(n, n, std::move(triplets));
}

}  // namespace

CoaneModel::CoaneModel(const Graph& graph, const CoaneConfig& config)
    : graph_(graph), config_(config), rng_(config.seed) {}

Status CoaneModel::Preprocess(const RunContext* ctx) {
  COANE_RETURN_IF_ERROR(ValidateConfig(config_));
  if (config_.use_attributes && graph_.num_attributes() == 0) {
    return Status::FailedPrecondition(
        "graph has no attributes; set use_attributes = false");
  }
  if (config_.use_attributes) {
    // Materialize the training features through the imputation stage: a
    // complete graph passes through unchanged, a masked one has its
    // missing rows/cells filled per config_.missing_attrs (or rejected).
    // The mask fingerprint rides along into every checkpoint. A caller
    // that already holds the imputation result (the incremental pipeline)
    // hands it in via SetPrecomputedFeatures.
    if (has_pre_features_) {
      features_ = std::move(pre_features_);
      has_pre_features_ = false;
    } else {
      auto imputed = ImputeMissingAttributes(graph_, config_.missing_attrs);
      if (!imputed.ok()) return imputed.status();
      features_ = std::move(imputed).ValueOrDie();
    }
    data_fingerprint_ = AttrMaskFingerprint(graph_);
  } else {
    features_ = IdentityFeatures(graph_.num_nodes());
    data_fingerprint_ = 0;
  }

  // --- Structural contexts (Sec. 3.1).
  std::vector<Walk> walk_corpus;
  if (has_pre_walks_) {
    // Consume the exact engine draw GenerateRandomWalks would have made
    // (its per-walk master), so every draw after this point is
    // bit-identical whether the walks were supplied or generated here.
    (void)rng_.engine()();
    walk_corpus = std::move(pre_walks_);
    pre_walks_.clear();
    has_pre_walks_ = false;
  } else {
    RandomWalkConfig walk_cfg;
    walk_cfg.num_walks_per_node = config_.num_walks;
    walk_cfg.walk_length = config_.walk_length;
    auto walks = GenerateRandomWalks(graph_, walk_cfg, &rng_, ctx);
    if (!walks.ok()) return walks.status();
    walk_corpus = std::move(walks).ValueOrDie();
  }

  ContextOptions ctx_opt;
  ctx_opt.context_size = config_.context_size;
  ctx_opt.subsample_t = config_.subsample_t;
  auto contexts = GenerateContexts(walk_corpus, graph_.num_nodes(),
                                   ctx_opt, &rng_, ctx);
  if (!contexts.ok()) return contexts.status();
  contexts_ = std::make_unique<ContextSet>(std::move(contexts).ValueOrDie());

  // --- Co-occurrence statistics (Sec. 3.1 / 3.3.1).
  cooccurrence_ = BuildCooccurrence(graph_, *contexts_);
  if (config_.dtilde_normalize_after_add) {
    // Design ablation: normalize(D + D^1) instead of normalize(D) + D^1 —
    // drops the paper's extra one-hop emphasis.
    cooccurrence_.d_tilde =
        SparseMatrix::Add(cooccurrence_.d, cooccurrence_.d1)
            .RowNormalized();
  }
  if (config_.skipgram_positive) {
    // SG ablation: every observed pair with its raw count, full-vector dots.
    positive_pairs_ = TopKPositivePairs(cooccurrence_.d,
                                        graph_.num_nodes());
  } else {
    const int64_t k = config_.positive_topk ? cooccurrence_.k_p
                                            : graph_.num_nodes();
    positive_pairs_ = TopKPositivePairs(cooccurrence_.d_tilde, k);
  }

  // --- Negative sampler (Sec. 3.3.2).
  switch (config_.negative_mode) {
    case NegativeSamplingMode::kPreSampled: {
      const int64_t pool = std::max<int64_t>(
          static_cast<int64_t>(config_.num_negative) *
              config_.presample_pool_factor,
          256);
      negative_sampler_ = std::make_unique<PreSampledNegativeSampler>(
          *contexts_, &cooccurrence_.d, pool, &rng_);
      break;
    }
    case NegativeSamplingMode::kBatch:
      negative_sampler_ = std::make_unique<BatchNegativeSampler>(
          *contexts_, &cooccurrence_.d);
      break;
    case NegativeSamplingMode::kUniform:
      negative_sampler_ =
          std::make_unique<UniformNegativeSampler>(graph_.num_nodes());
      break;
  }

  // --- Model parameters (Xavier-initialized).
  encoder_ = std::make_unique<ContextEncoder>(
      config_.context_size, features_.cols(), config_.embedding_dim,
      config_.encoder_kind, &rng_);
  encoder_->RegisterParams(&optimizer_);
  if (config_.use_attribute_loss) {
    std::vector<int64_t> dims;
    dims.push_back(config_.embedding_dim);
    for (int64_t h : config_.decoder_hidden) dims.push_back(h);
    dims.push_back(features_.cols());
    decoder_ = std::make_unique<Mlp>(dims, &rng_);
    decoder_->RegisterParams(&optimizer_);
  }
  optimizer_.set_learning_rate(config_.learning_rate);

  z_ = DenseMatrix(graph_.num_nodes(), config_.embedding_dim, 0.0f);
  in_batch_.assign(static_cast<size_t>(graph_.num_nodes()), 0);
  RenewEmbeddings();
  preprocessed_ = true;
  return Status::OK();
}

Result<std::vector<EpochStats>> CoaneModel::Train(const RunContext* ctx) {
  std::vector<EpochStats> history;
  while (epochs_done_ < config_.max_epochs) {
    auto stats = TrainEpoch(ctx);
    if (!stats.ok()) return stats.status();
    history.push_back(stats.value());
  }
  return history;
}

Result<EpochStats> CoaneModel::TrainEpoch(const RunContext* ctx) {
  if (!preprocessed_) {
    return Status::FailedPrecondition("call Preprocess() before training");
  }
  // Divergence-recovery policy: snapshot the mutable state, and on a
  // non-finite batch roll back, decay the learning rate, and retry the
  // epoch — bounded, then fail cleanly instead of emitting NaN embeddings.
  const std::string snapshot = SnapshotState();
  const float base_lr = optimizer_.config().learning_rate;
  for (int attempt = 0;; ++attempt) {
    auto stats = TrainEpochOnce(ctx);
    if (stats.ok()) return stats;
    if (stats.status().code() != StatusCode::kInternal) {
      // A cancel/deadline stop mid-epoch also rolls back to the epoch
      // boundary: the model then sits exactly at `epochs_done_` completed
      // epochs, so a checkpoint taken now resumes bit-identically.
      const StatusCode code = stats.status().code();
      if (code == StatusCode::kCancelled ||
          code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kResourceExhausted) {
        COANE_RETURN_IF_ERROR(RestoreState(snapshot));
        RenewEmbeddings();
      }
      return stats.status();
    }
    COANE_RETURN_IF_ERROR(RestoreState(snapshot));
    RenewEmbeddings();
    if (attempt >= config_.divergence_max_retries) {
      return Status::Internal(
          "training diverged at epoch " + std::to_string(epochs_done_ + 1) +
          " and did not recover after " + std::to_string(attempt) +
          " retry(ies); model rolled back to the epoch-start state: " +
          stats.status().message());
    }
    const float lr = base_lr * std::pow(config_.divergence_lr_decay,
                                        static_cast<float>(attempt + 1));
    optimizer_.set_learning_rate(lr);
    COANE_LOG(Warning) << "epoch " << (epochs_done_ + 1)
                       << " diverged (" << stats.status().message()
                       << "); rolled back, retrying with lr " << lr;
  }
}

Result<EpochStats> CoaneModel::TrainEpochOnce(const RunContext* ctx) {
  Stopwatch watch;
  EpochStats stats;
  stats.epoch = epochs_done_ + 1;

  // RandomlySplitBatch: shuffle nodes, carve into batches of n_B.
  std::vector<NodeId> order(static_cast<size_t>(graph_.num_nodes()));
  std::iota(order.begin(), order.end(), 0);
  rng_.Shuffle(&order);
  for (size_t start = 0; start < order.size();
       start += static_cast<size_t>(config_.batch_size)) {
    // Unit of work = one batch; TrainEpoch rolls the partial epoch back.
    COANE_RETURN_IF_STOPPED(ctx, "train.batch");
    if (ctx != nullptr) ctx->ChargeWork(1);
    const size_t end = std::min(
        order.size(), start + static_cast<size_t>(config_.batch_size));
    std::vector<NodeId> batch(order.begin() + static_cast<int64_t>(start),
                              order.begin() + static_cast<int64_t>(end));
    COANE_RETURN_IF_ERROR(TrainBatch(batch, &stats));
  }
  RenewEmbeddings();
  stats.total_loss =
      stats.positive_loss + stats.negative_loss + stats.attribute_loss;
  stats.seconds = watch.ElapsedSeconds();
  ++epochs_done_;
  return stats;
}

Status CoaneModel::TrainBatch(const std::vector<NodeId>& batch,
                              EpochStats* stats) {
  ThreadPool* pool = GlobalThreadPool();
  const int64_t batch_size = static_cast<int64_t>(batch.size());

  // --- Embedding Updating: refresh z_v for batch nodes from the encoder.
  // Row-disjoint writes (each batch node owns its z_ row and in_batch_
  // flag), so elastic sharding stays bit-identical.
  (void)ParallelFor(
      pool, nullptr, "train.batch_encode", batch_size,
      ElasticShards(pool, batch_size),
      [&](int64_t, int64_t begin, int64_t end) -> Status {
        for (int64_t b = begin; b < end; ++b) {
          const NodeId v = batch[static_cast<size_t>(b)];
          encoder_->EncodeNode(*contexts_, features_, v, z_.Row(v));
          in_batch_[static_cast<size_t>(v)] = 1;
        }
        return Status::OK();
      });
  // Whatever happens below, batch-membership flags must not leak into the
  // next batch.
  struct FlagReset {
    const std::vector<NodeId>& batch;
    std::vector<uint8_t>& flags;
    ~FlagReset() {
      for (NodeId v : batch) flags[static_cast<size_t>(v)] = 0;
    }
  } flag_reset{batch, in_batch_};

  DenseMatrix dz(z_.rows(), z_.cols(), 0.0f);

  // --- Loss Updating. Negatives are drawn from rng_ on this thread, in
  // batch order — exactly the draws the sequential loop made — so the
  // checkpointed RNG stream stays bit-identical under parallelism. The
  // losses themselves run sharded with ordered reduction (objective.h).
  std::vector<std::vector<NodeId>> negatives;
  const bool use_negative =
      config_.use_negative_loss && config_.num_negative > 0;
  if (use_negative) {
    negatives.resize(batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
      negatives[b] = negative_sampler_->Sample(
          batch[b], config_.num_negative, batch, &rng_);
    }
  }
  const BatchLosses losses = ParallelBatchObjective(
      z_, config_.use_positive_loss ? &positive_pairs_ : nullptr,
      /*split_lr=*/!config_.skipgram_positive,
      use_negative ? &negatives : nullptr, config_.negative_weight, batch,
      in_batch_, &dz);
  double positive = losses.positive, negative = losses.negative,
         attribute = 0.0;

  encoder_->ZeroGrad();
  if (config_.use_attribute_loss) {
    decoder_->ZeroGrad();
    // L_att = gamma * MSE(MLP(z_batch), X_batch).
    std::vector<int64_t> rows(batch.begin(), batch.end());
    DenseMatrix z_batch = z_.SelectRows(rows);
    DenseMatrix x_batch = BatchFeatures(batch);
    DenseMatrix x_hat = decoder_->Forward(z_batch);
    DenseMatrix dx_hat;
    const double mse = MseLoss(x_hat, x_batch, &dx_hat);
    attribute = config_.attribute_gamma * mse;
    dx_hat.Scale(config_.attribute_gamma);
    DenseMatrix dz_batch = decoder_->Backward(dx_hat);
    for (size_t b = 0; b < batch.size(); ++b) {
      Axpy(1.0f, dz_batch.Row(static_cast<int64_t>(b)),
           dz.Row(batch[b]), z_.cols());
    }
  }

  if (fault::ShouldFail("train.batch_grad")) {
    // Simulated divergence: poison the batch gradient exactly like an
    // overflowing loss term would.
    dz.Row(batch.front())[0] = std::numeric_limits<float>::quiet_NaN();
  }

  // --- Numerical health: reject the batch before any parameter is
  // stepped, so rollback only ever has to undo whole epochs.
  if (config_.check_numerics) {
    if (!std::isfinite(positive) || !std::isfinite(negative) ||
        !std::isfinite(attribute)) {
      return Status::Internal("non-finite loss (L_pos=" +
                              std::to_string(positive) + ", L_neg=" +
                              std::to_string(negative) + ", L_att=" +
                              std::to_string(attribute) + ")");
    }
    if (!AllFinite(dz)) {
      return Status::Internal("non-finite batch gradient dL/dZ");
    }
  }
  if (config_.grad_clip_norm > 0.0f) {
    const double norm = dz.FrobeniusNorm();
    if (norm > config_.grad_clip_norm) {
      dz.Scale(static_cast<float>(config_.grad_clip_norm / norm));
    }
  }

  // --- Backprop dL/dz through the encoder for batch nodes and step.
  // Shard-private gradient buffers folded in shard order: the parameter
  // gradient handed to Adam has a fixed summation tree (fixed shard count),
  // so the optimizer step — and every checkpoint taken after it — is
  // bit-identical at every thread count.
  std::vector<std::vector<DenseMatrix>> grad_shards(
      static_cast<size_t>(kFixedReductionShards));
  (void)ParallelFor(
      pool, nullptr, "train.encoder_grad", batch_size,
      kFixedReductionShards,
      [&](int64_t shard, int64_t begin, int64_t end) -> Status {
        if (begin == end) return Status::OK();
        auto& buf = grad_shards[static_cast<size_t>(shard)];
        buf = encoder_->MakeGradBuffer();
        for (int64_t b = begin; b < end; ++b) {
          const NodeId v = batch[static_cast<size_t>(b)];
          encoder_->AccumulateGradientInto(*contexts_, features_, v,
                                           dz.Row(v), &buf);
        }
        return Status::OK();
      });
  for (const auto& buf : grad_shards) {
    if (!buf.empty()) encoder_->MergeGrad(buf);
  }
  encoder_->ApplyGrad(&optimizer_);
  if (config_.use_attribute_loss) decoder_->ApplyGrad(&optimizer_);

  stats->positive_loss += positive;
  stats->negative_loss += negative;
  stats->attribute_loss += attribute;
  return Status::OK();
}

void CoaneModel::RenewEmbeddings() {
  // Row-disjoint writes; z_v is a pure function of the weights, so any
  // sharding yields the same matrix.
  ThreadPool* pool = GlobalThreadPool();
  const int64_t n = graph_.num_nodes();
  (void)ParallelFor(pool, nullptr, "train.renew", n, ElasticShards(pool, n),
                    [&](int64_t, int64_t begin, int64_t end) -> Status {
                      for (NodeId v = static_cast<NodeId>(begin);
                           v < static_cast<NodeId>(end); ++v) {
                        encoder_->EncodeNode(*contexts_, features_, v,
                                             z_.Row(v));
                      }
                      return Status::OK();
                    });
}

DenseMatrix CoaneModel::BatchFeatures(
    const std::vector<NodeId>& batch) const {
  DenseMatrix x(static_cast<int64_t>(batch.size()), features_.cols(), 0.0f);
  for (size_t b = 0; b < batch.size(); ++b) {
    float* row = x.Row(static_cast<int64_t>(b));
    for (const SparseEntry& e : features_.Row(batch[b])) {
      row[e.col] = e.value;
    }
  }
  return x;
}

std::string CoaneModel::SnapshotState() const {
  std::string blob;
  AppendF32(&blob, optimizer_.config().learning_rate);
  const std::string rng_state = rng_.SerializeState();
  AppendU64(&blob, rng_state.size());
  blob.append(rng_state);
  AppendEncoderWeights(&blob, *encoder_);
  AppendU32(&blob, decoder_ ? 1 : 0);
  if (decoder_) AppendMlpWeights(&blob, *decoder_);
  AppendAdamState(&blob, optimizer_);
  return blob;
}

Status CoaneModel::RestoreState(const std::string& blob) {
  ByteReader reader(blob);
  float lr = 0.0f;
  uint64_t rng_size = 0;
  std::string rng_state;
  if (!reader.ReadF32(&lr) || !reader.ReadU64(&rng_size) ||
      !reader.ReadBytes(rng_size, &rng_state)) {
    return Status::DataLoss("truncated model state blob");
  }
  if (!rng_.DeserializeState(rng_state)) {
    return Status::DataLoss("corrupt RNG state in model state blob");
  }
  COANE_RETURN_IF_ERROR(ReadEncoderWeightsInto(&reader, encoder_.get()));
  uint32_t has_decoder = 0;
  if (!reader.ReadU32(&has_decoder)) {
    return Status::DataLoss("truncated model state blob");
  }
  if ((has_decoder != 0) != (decoder_ != nullptr)) {
    return Status::DataLoss("decoder presence mismatch in state blob");
  }
  if (decoder_) {
    COANE_RETURN_IF_ERROR(ReadMlpWeightsInto(&reader, decoder_.get()));
  }
  COANE_RETURN_IF_ERROR(ReadAdamStateInto(&reader, &optimizer_));
  optimizer_.set_learning_rate(lr);
  return Status::OK();
}

Status CoaneModel::SaveCheckpoint(const std::string& path,
                                  const RetryPolicy* retry) const {
  if (!preprocessed_) {
    return Status::FailedPrecondition(
        "call Preprocess() before SaveCheckpoint()");
  }
  TrainingCheckpoint ckpt;
  ckpt.epochs_done = epochs_done_;
  ckpt.learning_rate = optimizer_.config().learning_rate;
  ckpt.config_fingerprint = ConfigFingerprint(config_);
  ckpt.data_fingerprint = data_fingerprint_;
  ckpt.has_decoder = decoder_ != nullptr;
  ckpt.rng_state = rng_.SerializeState();
  AppendEncoderWeights(&ckpt.encoder_blob, *encoder_);
  if (decoder_) AppendMlpWeights(&ckpt.decoder_blob, *decoder_);
  AppendAdamState(&ckpt.optimizer_blob, optimizer_);
  if (retry == nullptr) return WriteCheckpointFile(path, ckpt);
  // The serialized state is assembled once; only the write retries.
  return RetryOp(*retry, nullptr, "checkpoint.write",
                 [&](const RunContext*) {
                   return WriteCheckpointFile(path, ckpt);
                 });
}

Status CoaneModel::LoadCheckpoint(const std::string& path) {
  if (!preprocessed_) {
    return Status::FailedPrecondition(
        "call Preprocess() before LoadCheckpoint()");
  }
  auto loaded = ReadCheckpointFile(path);
  if (!loaded.ok()) return loaded.status();
  const TrainingCheckpoint& ckpt = loaded.value();
  if (ckpt.config_fingerprint != ConfigFingerprint(config_)) {
    return Status::FailedPrecondition(
        "checkpoint " + path +
        " was written under a different configuration");
  }
  // A recorded 0 means "pre-field file / complete data" and is accepted;
  // any other value must match this model's mask exactly — resuming
  // against differently-degraded data would train on different features.
  if (ckpt.data_fingerprint != 0 &&
      ckpt.data_fingerprint != data_fingerprint_) {
    return Status::FailedPrecondition(
        "checkpoint " + path +
        " was written against differently-masked attribute data");
  }
  if (ckpt.has_decoder != (decoder_ != nullptr)) {
    return Status::DataLoss("decoder presence mismatch in " + path);
  }

  COANE_RETURN_IF_ERROR(RestoreSections(ckpt, /*restore_rng=*/true, path));
  epochs_done_ = static_cast<int>(ckpt.epochs_done);
  return Status::OK();
}

Status CoaneModel::RestoreSections(const TrainingCheckpoint& ckpt,
                                   bool restore_rng,
                                   const std::string& what) {
  const std::string backup = SnapshotState();
  Status st = [&]() -> Status {
    if (restore_rng && !rng_.DeserializeState(ckpt.rng_state)) {
      return Status::DataLoss("corrupt RNG section in " + what);
    }
    ByteReader encoder_reader(ckpt.encoder_blob);
    COANE_RETURN_IF_ERROR(
        ReadEncoderWeightsInto(&encoder_reader, encoder_.get()));
    if (decoder_) {
      ByteReader decoder_reader(ckpt.decoder_blob);
      COANE_RETURN_IF_ERROR(
          ReadMlpWeightsInto(&decoder_reader, decoder_.get()));
    }
    ByteReader optimizer_reader(ckpt.optimizer_blob);
    return ReadAdamStateInto(&optimizer_reader, &optimizer_);
  }();
  if (!st.ok()) {
    const Status rollback = RestoreState(backup);
    COANE_CHECK(rollback.ok());
    return st;
  }
  optimizer_.set_learning_rate(ckpt.learning_rate);
  RenewEmbeddings();
  return Status::OK();
}

void CoaneModel::SetPrecomputedWalks(std::vector<Walk> walks) {
  pre_walks_ = std::move(walks);
  has_pre_walks_ = true;
}

void CoaneModel::SetPrecomputedFeatures(SparseMatrix features) {
  pre_features_ = std::move(features);
  has_pre_features_ = true;
}

Status CoaneModel::WarmStartFrom(const TrainingCheckpoint& ckpt) {
  if (!preprocessed_) {
    return Status::FailedPrecondition(
        "call Preprocess() before WarmStartFrom()");
  }
  if (ckpt.has_decoder != (decoder_ != nullptr)) {
    return Status::DataLoss("decoder presence mismatch in warm-start state");
  }
  // No config/data-fingerprint checks: warm-starting across a mutation
  // batch legitimately crosses mask (and log-position) fingerprints.
  // Shape mismatches are still caught section by section.
  COANE_RETURN_IF_ERROR(
      RestoreSections(ckpt, /*restore_rng=*/false, "warm-start state"));
  epochs_done_ = 0;  // config.max_epochs now bounds the refinement budget
  return Status::OK();
}

Status CoaneModel::ApplyAveragedState(const TrainingCheckpoint& merged) {
  if (!preprocessed_) {
    return Status::FailedPrecondition(
        "call Preprocess() before ApplyAveragedState()");
  }
  if (merged.has_decoder != (decoder_ != nullptr)) {
    return Status::DataLoss("decoder presence mismatch in merged state");
  }
  if (merged.data_fingerprint != 0 &&
      merged.data_fingerprint != data_fingerprint_) {
    return Status::FailedPrecondition(
        "merged state was averaged over differently-masked attribute data");
  }
  if (merged.epochs_done != epochs_done_) {
    return Status::FailedPrecondition(
        "merged state is at epoch " + std::to_string(merged.epochs_done) +
        " but this model is at epoch " + std::to_string(epochs_done_) +
        " — merges apply only at matching round boundaries");
  }
  return RestoreSections(merged, /*restore_rng=*/false, "merged state");
}

Result<DenseMatrix> TrainCoaneEmbeddings(const Graph& graph,
                                         const CoaneConfig& config,
                                         const RunContext* ctx) {
  CoaneModel model(graph, config);
  COANE_RETURN_IF_ERROR(model.Preprocess(ctx));
  auto stats = model.Train(ctx);
  if (!stats.ok()) return stats.status();
  return model.embeddings();
}

}  // namespace coane
