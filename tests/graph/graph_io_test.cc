#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "graph/graph_builder.h"

namespace coane {
namespace {

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    edges_path_ = "/tmp/coane_io_edges.txt";
    attrs_path_ = "/tmp/coane_io_attrs.txt";
    labels_path_ = "/tmp/coane_io_labels.txt";
  }
  void TearDown() override {
    std::remove(edges_path_.c_str());
    std::remove(attrs_path_.c_str());
    std::remove(labels_path_.c_str());
  }
  std::string edges_path_, attrs_path_, labels_path_;
};

TEST_F(GraphIoTest, RoundTripFullGraph) {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 2.0f).AddEdge(1, 2);
  b.SetAttributes(
      SparseMatrix::FromTriplets(3, 5, {{0, 1, 1.0f}, {2, 4, 0.5f}}));
  b.SetLabels({0, 1, 0});
  Graph g = std::move(b).Build().ValueOrDie();

  ASSERT_TRUE(
      SaveAttributedGraph(g, edges_path_, attrs_path_, labels_path_).ok());
  auto loaded =
      LoadAttributedGraph(edges_path_, attrs_path_, labels_path_, 3, 5);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Graph& h = loaded.value();
  EXPECT_EQ(h.num_nodes(), 3);
  EXPECT_EQ(h.num_edges(), 2);
  EXPECT_FLOAT_EQ(h.EdgeWeight(0, 1), 2.0f);
  EXPECT_EQ(h.num_attributes(), 5);
  EXPECT_FLOAT_EQ(h.attributes().At(2, 4), 0.5f);
  EXPECT_EQ(h.labels(), g.labels());
}

TEST_F(GraphIoTest, LoadEdgeListSkipsComments) {
  std::ofstream out(edges_path_);
  out << "# a comment\n\n0 1\n1 2 3.0\n";
  out.close();
  auto g = LoadEdgeList(edges_path_);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 3);
  EXPECT_EQ(g.value().num_edges(), 2);
  EXPECT_FLOAT_EQ(g.value().EdgeWeight(1, 2), 3.0f);
}

TEST_F(GraphIoTest, MissingFileFails) {
  auto g = LoadEdgeList("/tmp/definitely_not_here_coane.txt");
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kIoError);
}

TEST_F(GraphIoTest, MalformedEdgeLineFails) {
  std::ofstream out(edges_path_);
  out << "0 1 2 3\n";
  out.close();
  auto g = LoadEdgeList(edges_path_);
  EXPECT_FALSE(g.ok());
}

TEST_F(GraphIoTest, NonNumericFieldFails) {
  std::ofstream out(edges_path_);
  out << "0 abc\n";
  out.close();
  auto g = LoadEdgeList(edges_path_);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(GraphIoTest, NumNodesOverridesInference) {
  std::ofstream out(edges_path_);
  out << "0 1\n";
  out.close();
  auto g = LoadEdgeList(edges_path_, 10);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 10);
}

TEST_F(GraphIoTest, EmbeddingsRoundTrip) {
  DenseMatrix m(3, 2);
  for (int i = 0; i < 6; ++i) m.data()[i] = 0.5f * static_cast<float>(i);
  const std::string path = "/tmp/coane_io_embed.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_TRUE(loaded.value().SameShape(m));
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_FLOAT_EQ(loaded.value().data()[i], m.data()[i]);
  }
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, EmbeddingsCarryCrcFooter) {
  DenseMatrix m(2, 2);
  for (int i = 0; i < 4; ++i) m.data()[i] = static_cast<float>(i);
  const std::string path = "/tmp/coane_io_embed_crc.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  EXPECT_NE(contents.find("# crc32 "), std::string::npos)
      << "SaveEmbeddings must append a CRC footer";
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, CorruptEmbeddingsRejectedWithDataLoss) {
  DenseMatrix m(3, 2);
  for (int i = 0; i < 6; ++i) m.data()[i] = 0.25f * static_cast<float>(i);
  const std::string path = "/tmp/coane_io_embed_corrupt.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());

  // Flip one digit of a value: the footer no longer matches.
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const size_t pos = contents.find("0.25");
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 2] = '7';
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
  }
  auto loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  // The diagnostic names the offending file.
  EXPECT_NE(loaded.status().ToString().find(path), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, LegacyEmbeddingsWithoutFooterStillLoad) {
  const std::string path = "/tmp/coane_io_embed_legacy.txt";
  {
    std::ofstream out(path);
    out << "# hand-written, no CRC footer\n"
        << "0 1.0 2.0\n"
        << "1 3.0 4.0\n";
  }
  auto loaded = LoadEmbeddings(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows(), 2);
  EXPECT_EQ(loaded.value().cols(), 2);
  EXPECT_FLOAT_EQ(loaded.value().At(1, 1), 4.0f);
  std::remove(path.c_str());
}

// A row appended after the footer is not covered by the CRC: the file
// must be rejected, not loaded with the extra row.
TEST_F(GraphIoTest, EmbeddingsRowAfterFooterRejected) {
  DenseMatrix m(3, 2);
  for (int i = 0; i < 6; ++i) m.data()[i] = 0.5f * static_cast<float>(i);
  const std::string path = "/tmp/coane_io_embed_appended.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "3 9 9\n";
  }
  auto loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok()) << "loaded " << loaded.value().rows() << " rows";
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// A file cut before its footer still starts with SaveEmbeddings' header,
// so it must not be taken for a footer-less legacy file.
TEST_F(GraphIoTest, EmbeddingsCutBeforeFooterRejected) {
  DenseMatrix m(3, 2);
  for (int i = 0; i < 6; ++i) m.data()[i] = 0.5f * static_cast<float>(i);
  const std::string path = "/tmp/coane_io_embed_cut.txt";
  ASSERT_TRUE(SaveEmbeddings(m, path).ok());
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  // Keep the header and the first two rows; drop the last row and footer.
  size_t cut = 0;
  for (int line = 0; line < 3; ++line) cut = contents.find('\n', cut) + 1;
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents.substr(0, cut);
  }
  auto loaded = LoadEmbeddings(path);
  ASSERT_FALSE(loaded.ok()) << "loaded " << loaded.value().rows() << " rows";
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST_F(GraphIoTest, AttributeNodeOutOfRangeFails) {
  {
    std::ofstream out(edges_path_);
    out << "0 1\n";
  }
  {
    std::ofstream out(attrs_path_);
    out << "9 0 1.0\n";
  }
  auto g = LoadAttributedGraph(edges_path_, attrs_path_, "", 2);
  EXPECT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace coane
