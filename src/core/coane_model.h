#ifndef COANE_CORE_COANE_MODEL_H_
#define COANE_CORE_COANE_MODEL_H_

#include <memory>
#include <vector>

#include "common/retry.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/checkpoint.h"
#include "core/coane_config.h"
#include "graph/graph.h"
#include "la/dense_matrix.h"
#include "nn/context_conv.h"
#include "nn/mlp.h"
#include "walk/cooccurrence.h"
#include "walk/negative_sampler.h"
#include "walk/random_walk.h"

namespace coane {

/// Per-epoch training record (used by the Fig. 4d runtime analysis).
struct EpochStats {
  int epoch = 0;
  double positive_loss = 0.0;
  double negative_loss = 0.0;
  double attribute_loss = 0.0;
  double total_loss = 0.0;
  double seconds = 0.0;
};

/// End-to-end CoANE (Algorithm 1): preprocessing (random walks, contexts,
/// co-occurrence matrices, negative sampler) followed by batched training of
/// the context-convolution encoder, the three-way objective, and the MLP
/// attribute decoder. Typical use:
///
///   CoaneModel model(graph, config);
///   COANE_RETURN_IF_ERROR(model.Preprocess());
///   auto stats = model.Train();            // all epochs
///   const DenseMatrix& z = model.embeddings();
///
/// All intermediate products (contexts, D, D^1, filters) stay accessible
/// for the paper's model analyses (Figs. 5 and 6b).
class CoaneModel {
 public:
  /// `graph` must outlive the model.
  CoaneModel(const Graph& graph, const CoaneConfig& config);

  /// Runs the pre-processing phase. Must be called once before Train /
  /// TrainEpoch. Fails on invalid configuration. `ctx` (optional) bounds
  /// the walk/context generation; a stopped run returns kCancelled /
  /// kDeadlineExceeded before any training state is created.
  Status Preprocess(const RunContext* ctx = nullptr);

  /// Hands Preprocess a prebuilt walk corpus (the dynamic-graph
  /// pipeline's incrementally maintained walks; see stream::WalkCorpus).
  /// Must be called before Preprocess(). Preprocess still consumes the
  /// one engine draw walk generation would have made, so every later
  /// draw from the model RNG — context subsampling, negative pools,
  /// Xavier init — is bit-identical to a from-scratch run. The caller
  /// guarantees the walks equal what GenerateRandomWalks(graph, config,
  /// seed) produces (stream::UpdateWalkCorpus maintains exactly that).
  void SetPrecomputedWalks(std::vector<Walk> walks);

  /// Hands Preprocess a prebuilt feature matrix in place of running
  /// ImputeMissingAttributes (the pipeline's incremental re-imputation,
  /// stream::IncrementalReimpute). Must be called before Preprocess();
  /// ignored when config.use_attributes is false. The mask fingerprint
  /// is still computed from the graph itself.
  void SetPrecomputedFeatures(SparseMatrix features);

  /// Adopts the *parameters* of a checkpoint trained on an earlier
  /// version of this graph: encoder filters, decoder weights, Adam
  /// moments/steps, and learning rate — but NOT the RNG state (this
  /// model keeps its own deterministic stream) and NOT the epoch count
  /// (epochs_done resets to 0, so config.max_epochs acts as the bounded
  /// refinement budget counted from the warm start). Unlike
  /// LoadCheckpoint, neither the config nor the data fingerprint must
  /// match — a mutated graph legitimately carries a new mask — but the
  /// parameter shapes must: any mismatch is rejected with the model
  /// state unchanged. Requires Preprocess().
  Status WarmStartFrom(const TrainingCheckpoint& ckpt);

  /// Trains until epochs_done() reaches config.max_epochs (calls
  /// TrainEpoch repeatedly) and refreshes all embeddings. Returns the
  /// per-epoch history of the epochs run by this call — after
  /// LoadCheckpoint it covers only the remaining epochs. `ctx` is checked
  /// every batch; see TrainEpoch for the stop semantics.
  Result<std::vector<EpochStats>> Train(const RunContext* ctx = nullptr);

  /// Runs one epoch of batch updates and refreshes all embeddings. When a
  /// batch yields a non-finite loss or gradient, the epoch is rolled back
  /// to its in-memory snapshot and retried with a decayed learning rate
  /// (config.divergence_max_retries / divergence_lr_decay); persistent
  /// divergence returns an Internal error with the model left at the
  /// pre-epoch state. A `ctx` cancel or deadline is honoured between
  /// batches: the partial epoch is rolled back so the model sits exactly
  /// at the last completed epoch — checkpointing then resuming is
  /// bit-identical to an uninterrupted run.
  Result<EpochStats> TrainEpoch(const RunContext* ctx = nullptr);

  /// Number of completed training epochs (restored by LoadCheckpoint).
  int epochs_done() const { return epochs_done_; }

  /// Serializes the full training state — encoder filters, decoder
  /// weights, Adam moments and step counts, RNG state, epochs_done — to a
  /// CRC-guarded checkpoint file, written atomically (temp + fsync +
  /// rename). Requires Preprocess(). Fault point: "checkpoint.write".
  /// With `retry` set, a transient write failure (kIoError /
  /// kResourceExhausted) is re-attempted under that policy; nullptr (the
  /// default, and what fault-injection tests rely on) writes exactly
  /// once.
  Status SaveCheckpoint(const std::string& path,
                        const RetryPolicy* retry = nullptr) const;

  /// Restores a checkpoint written by SaveCheckpoint into this model.
  /// Requires Preprocess() with the same graph and config (enforced via a
  /// config fingerprint). A corrupt checkpoint is rejected with kDataLoss
  /// and the model keeps its current state. A resumed run is bit-identical
  /// to an uninterrupted run with the same seed.
  Status LoadCheckpoint(const std::string& path);

  /// Adopts averaged *parameters* from a merged checkpoint produced by
  /// dist::AverageCheckpoints: encoder filters, decoder weights, Adam
  /// moments/steps, and learning rate — but NOT the RNG state (each shard
  /// keeps its own deterministic stream; the merged checkpoint carries
  /// none) and NOT epochs_done (the merge is an epoch-boundary barrier,
  /// so the merged count must already equal this model's — enforced).
  /// All-or-nothing like LoadCheckpoint: any shape mismatch returns
  /// kDataLoss/kFailedPrecondition with the model state unchanged.
  /// Idempotent: applying the same merged state twice is a no-op, which
  /// is what makes a worker relaunched after publishing safe.
  Status ApplyAveragedState(const TrainingCheckpoint& merged);

  /// Node embeddings Z (n x d'), refreshed after each epoch.
  const DenseMatrix& embeddings() const { return z_; }

  /// Pre-processing products, valid after Preprocess().
  const ContextSet& contexts() const { return *contexts_; }
  const CooccurrenceMatrices& cooccurrence() const { return cooccurrence_; }
  const ContextEncoder& encoder() const { return *encoder_; }
  /// Feature matrix actually used (graph attributes — imputed under
  /// config.missing_attrs when the graph carries an observation mask — or
  /// one-hot identity in the WF ablation).
  const SparseMatrix& features() const { return features_; }

  /// AttrMaskFingerprint of the training graph (0 = complete data or the
  /// WF ablation). Baked into every checkpoint this model writes, checked
  /// on every checkpoint it consumes. Valid after Preprocess().
  uint64_t data_fingerprint() const { return data_fingerprint_; }

  const CoaneConfig& config() const { return config_; }

 private:
  // One full pass over all batches; fails fast on the first unhealthy
  // batch without stepping the optimizer on it, and stops between batches
  // when `ctx` is cancelled or expired.
  Result<EpochStats> TrainEpochOnce(const RunContext* ctx);
  // Runs one batch update (Embedding Updating + Loss Updating of Alg. 1).
  // Returns Internal when numerical-health checks reject the batch.
  Status TrainBatch(const std::vector<NodeId>& batch, EpochStats* stats);
  // Serializes / restores the mutable training state (weights, optimizer
  // moments, RNG, learning rate) for divergence rollback and for
  // RestoreSections' all-or-nothing guarantee.
  std::string SnapshotState() const;
  Status RestoreState(const std::string& blob);
  // The all-or-nothing restore behind LoadCheckpoint, WarmStartFrom and
  // ApplyAveragedState: reads the encoder, decoder and Adam sections of
  // `ckpt` (and its RNG state when `restore_rng`), adopts its learning
  // rate and renews the embeddings. On any failure the model is rolled
  // back to its state before the call. `what` names the source in
  // diagnostics. Callers keep their own gates and epochs_done_ rule.
  Status RestoreSections(const TrainingCheckpoint& ckpt, bool restore_rng,
                         const std::string& what);
  // Recomputes z_v for all nodes from the current encoder.
  void RenewEmbeddings();
  // Densifies feature rows of `batch` into a (batch x d) matrix.
  DenseMatrix BatchFeatures(const std::vector<NodeId>& batch) const;

  const Graph& graph_;
  CoaneConfig config_;
  Rng rng_;
  bool preprocessed_ = false;
  bool has_pre_walks_ = false;
  bool has_pre_features_ = false;
  std::vector<Walk> pre_walks_;
  SparseMatrix pre_features_;
  int epochs_done_ = 0;
  uint64_t data_fingerprint_ = 0;

  SparseMatrix features_;
  std::unique_ptr<ContextSet> contexts_;
  CooccurrenceMatrices cooccurrence_;
  std::vector<std::vector<PositivePair>> positive_pairs_;
  std::unique_ptr<NegativeSampler> negative_sampler_;

  std::unique_ptr<ContextEncoder> encoder_;
  std::unique_ptr<Mlp> decoder_;
  AdamOptimizer optimizer_;
  DenseMatrix z_;
  std::vector<uint8_t> in_batch_;
};

/// Convenience wrapper: build, preprocess, train, and return the embedding
/// matrix.
Result<DenseMatrix> TrainCoaneEmbeddings(const Graph& graph,
                                         const CoaneConfig& config,
                                         const RunContext* ctx = nullptr);

}  // namespace coane

#endif  // COANE_CORE_COANE_MODEL_H_
