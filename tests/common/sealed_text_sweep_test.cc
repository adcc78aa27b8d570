// Corruption sweep over the six sealed text formats (SealText/UnsealText
// in common/checksum): the artifact manifest, the shard plan file, the
// round log, the `.pub` sidecar, the stream state file and embedding
// files. A small fixture of each, written by its real writer, is
// truncated at every offset, has every bit flipped in turn, and gets one
// line appended after its footer. Every variant must be rejected through
// the format's real reader — kDataLoss, never a crash and never a load.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/parallel/global_pool.h"
#include "core/artifact_manifest.h"
#include "dist/round_log.h"
#include "dist/shard_plan.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "la/dense_matrix.h"
#include "stream/pipeline.h"
#include "stream/provenance.h"

namespace coane {
namespace {

// What SaveEmbeddings writes first; a shorter prefix cannot be told from
// footer-less legacy text, so it may fail as InvalidArgument instead.
constexpr char kEmbeddingsHeader[] = "# node embedding[";

void WriteRaw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

class SealedTextSweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/coane_seal_XXXXXX";
    ASSERT_NE(::mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override { ASSERT_TRUE(RemoveTree(dir_).ok()); }

  // Overwrites `path` with every corrupt variant of its current contents
  // and runs `read` on each. Restores the original and checks it still
  // reads OK. `legacy_header` is set only for embedding files.
  void Sweep(const std::string& path, const std::function<Status()>& read,
             const char* legacy_header = nullptr) {
    auto original = ReadFileToString(path);
    ASSERT_TRUE(original.ok()) << original.status().ToString();
    const std::string blob = original.value();
    ASSERT_TRUE(read().ok()) << "fixture " << path << " must load";

    std::vector<std::string> failures;
    int variants = 0;
    auto expect_rejected = [&](const std::string& bytes,
                               const std::string& how) {
      ++variants;
      WriteRaw(path, bytes);
      const Status st = read();
      if (st.code() == StatusCode::kDataLoss) return;
      const bool short_legacy_prefix =
          legacy_header != nullptr &&
          bytes.size() < std::strlen(legacy_header) &&
          st.code() == StatusCode::kInvalidArgument;
      if (short_legacy_prefix) return;
      if (failures.size() < 8) {
        failures.push_back(how + ": " + st.ToString());
      }
    };
    for (size_t n = 0; n < blob.size(); ++n) {
      expect_rejected(blob.substr(0, n),
                      "truncated to " + std::to_string(n) + " bytes");
    }
    for (size_t i = 0; i < blob.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = blob;
        flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
        expect_rejected(flipped, "bit " + std::to_string(bit) +
                                     " of byte " + std::to_string(i));
      }
    }
    expect_rejected(blob + "0 1 2\n", "line appended after the footer");

    EXPECT_EQ(variants, static_cast<int>(9 * blob.size() + 1));
    EXPECT_TRUE(failures.empty())
        << path << " accepted or misreported corrupt variants, e.g. "
        << failures[0];
    WriteRaw(path, blob);
    EXPECT_TRUE(read().ok()) << "restored " << path << " must load again";
  }

  std::string dir_;
};

TEST_F(SealedTextSweepTest, ArtifactManifest) {
  ArtifactManifest manifest;
  ASSERT_TRUE(manifest.Record({"embeddings", "a.emb", 12, 0xdeadbeef, 7})
                  .ok());
  ASSERT_TRUE(manifest.Record({"checkpoint", "a.ckpt", 3, 0x1, 0x2}).ok());
  const std::string path = dir_ + "/manifest.tsv";
  ASSERT_TRUE(manifest.Save(path).ok());
  Sweep(path, [&] { return ArtifactManifest::Load(path).status(); });
}

TEST_F(SealedTextSweepTest, ShardPlan) {
  dist::ShardPlan plan;
  plan.num_shards = 2;
  plan.round_epochs = 1;
  plan.base.max_epochs = 2;
  ASSERT_TRUE(dist::SavePlanFile(dir_, plan).ok());
  Sweep(dist::PlanPath(dir_),
        [&] { return dist::VerifyPlanFile(dir_, plan); });
}

TEST_F(SealedTextSweepTest, RoundLog) {
  const uint64_t fingerprint = 0xabcdef0123456789ULL;
  dist::RoundLog log(fingerprint);
  dist::RoundRecord record;
  record.end_epoch = 1;
  record.committed = {0};
  record.missing = {1};
  record.degraded = true;
  record.merged_model_crc = 0x1234;
  record.merged_embeddings_crc = 0xffffffffu;
  const std::string path = dist::RoundLogPath(dir_);
  ASSERT_TRUE(log.Commit(record, path).ok());
  Sweep(path,
        [&] { return dist::RoundLog::Load(path, fingerprint).status(); });
}

TEST_F(SealedTextSweepTest, PublishSidecar) {
  stream::PublishInfo info;
  info.log_seq = 3;
  info.chain_fingerprint = 0xfeed;
  info.config_fingerprint = 0xc0ffee;
  info.created_unix_ms = 1700000000000LL;
  info.unobserved = {2};
  const std::string path = dir_ + "/a.emb.pub";
  ASSERT_TRUE(stream::SavePublishInfo(info, path).ok());
  Sweep(path, [&] { return stream::LoadPublishInfo(path).status(); });
}

TEST_F(SealedTextSweepTest, StreamState) {
  SetGlobalParallelism(1);
  GraphBuilder b(6);
  for (int i = 0; i < 6; ++i) b.AddEdge(i, (i + 1) % 6);
  b.SetAttributes(SparseMatrix::FromTriplets(
      6, 2, {{0, 0, 1.0f}, {2, 1, 1.0f}, {4, 0, 1.0f}}));
  Graph g = std::move(b).Build().ValueOrDie();
  stream::PipelineOptions options;
  options.init_edges = dir_ + "/g.edges";
  options.init_attrs = dir_ + "/g.attrs";
  ASSERT_TRUE(SaveAttributedGraph(g, options.init_edges, options.init_attrs,
                                  "")
                  .ok());
  options.log_path = dir_ + "/g.mlog";
  options.work_dir = dir_ + "/w";
  options.config.embedding_dim = 4;
  options.config.walk_length = 6;
  options.config.context_size = 3;
  options.config.num_negative = 1;
  options.config.decoder_hidden = {4};
  options.config.max_epochs = 1;
  options.config.seed = 5;
  {
    auto pipeline = stream::StreamPipeline::Open(options);
    ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
    auto step = pipeline.value()->Step();
    ASSERT_TRUE(step.ok()) << step.status().ToString();
  }
  Sweep(options.work_dir + "/stream_state.tsv",
        [&] { return stream::StreamPipeline::Open(options).status(); });
}

TEST_F(SealedTextSweepTest, Embeddings) {
  DenseMatrix m(3, 2);
  for (int i = 0; i < 6; ++i) m.data()[i] = 0.5f * static_cast<float>(i);
  const std::string path = dir_ + "/a.emb";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  Sweep(path, [&] { return LoadEmbeddings(path).status(); },
        kEmbeddingsHeader);
}

}  // namespace
}  // namespace coane
