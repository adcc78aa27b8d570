// Known-answer values for the FNV-1a fingerprints that gate resume,
// sharding and streaming. Every value was recorded from the
// implementation before the per-module mixers were folded into
// common/checksum's FnvMix; a change here means checkpoints, plan files,
// manifests and `.pub` sidecars written earlier no longer verify.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/checksum.h"
#include "core/coane_config.h"
#include "dist/shard_plan.h"
#include "graph/attr_impute.h"
#include "graph/graph_builder.h"
#include "la/sparse_matrix.h"
#include "stream/graph_apply.h"
#include "stream/mutation_log.h"
#include "stream/provenance.h"

namespace coane {
namespace {

// Four nodes on a weighted path plus a chord, two attribute columns, node
// 3 unobserved and one explicitly missing cell on node 1.
Graph FixtureGraph() {
  GraphBuilder b(4);
  b.AddEdge(0, 1).AddEdge(1, 2, 2.5f).AddEdge(2, 3).AddEdge(0, 2, 0.5f);
  b.SetAttributes(SparseMatrix::FromTriplets(
      4, 2, {{0, 0, 1.0f}, {0, 1, 0.25f}, {1, 0, 2.0f}, {2, 1, 3.0f}}));
  b.SetAttrObserved({1, 1, 1, 0});
  b.SetMissingAttrCells({{1, 1}});
  b.SetLabels({0, 1, 0, 1});
  auto g = std::move(b).Build();
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).ValueOrDie();
}

TEST(FingerprintKnownAnswerTest, GraphAndMask) {
  const Graph g = FixtureGraph();
  EXPECT_EQ(stream::GraphFingerprint(g), 0x408dbfc945114e90ULL);
  EXPECT_EQ(AttrMaskFingerprint(g), 0x2ccbdfeea5a2777aULL);
}

TEST(FingerprintKnownAnswerTest, MutationChain) {
  stream::Mutation m;
  m.seq = 7;
  m.op = stream::MutationOp::kSetAttr;
  m.u = 2;
  m.value = 1.5f;
  m.col = 1;
  m.masked = true;
  EXPECT_EQ(stream::FoldMutationFingerprint(0x123456789abcdef0ULL, m),
            0x824fbd8fab884583ULL);
}

TEST(FingerprintKnownAnswerTest, PlanAndStream) {
  dist::ShardPlan plan;
  plan.num_shards = 3;
  plan.quorum = 2;
  plan.round_epochs = 2;
  plan.base.seed = 11;
  plan.base.max_epochs = 6;
  EXPECT_EQ(dist::PlanFingerprint(plan), 0xe894f7ea3091b872ULL);
  EXPECT_EQ(stream::StreamFingerprint(0xfeedfacecafebeefULL, 42,
                                      0x0123456789abcdefULL),
            0x865241cd06ad1429ULL);
}

}  // namespace
}  // namespace coane
