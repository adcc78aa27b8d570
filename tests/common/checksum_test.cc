// Covers the crash-safety plumbing: CRC-32, atomic whole-file replacement,
// and the deterministic fault-injection registry that the robustness
// integration tests rely on.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/string_utils.h"

namespace coane {
namespace {

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ChecksumTest, KnownVectors) {
  // The standard CRC-32 check value.
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string("")), 0u);
  EXPECT_NE(Crc32(std::string("CoANE")), Crc32(std::string("CoANf")));
}

TEST(ChecksumTest, IncrementalMatchesOneShot) {
  const std::string data = "context co-occurrence";
  const uint32_t one_shot = Crc32(data);
  uint32_t running = Crc32(data.data(), 7);
  running = Crc32(data.data() + 7, data.size() - 7, running);
  EXPECT_EQ(running, one_shot);
}

TEST(SealedTextTest, SealAppendsOneFooterLine) {
  EXPECT_EQ(SealText("a\n"),
            "a\n# crc32 " + Hex32(Crc32(std::string("a\n"))) + "\n");
  EXPECT_EQ(SealText(""), "# crc32 00000000\n");
}

TEST(SealedTextTest, UnsealReturnsBodyViewWithoutCopy) {
  const std::string sealed = SealText("header\nrow 1\n");
  auto body = UnsealText(sealed, "fixture");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_EQ(body.value(), "header\nrow 1\n");
  EXPECT_EQ(body.value().data(), sealed.data());
  auto empty = UnsealText(SealText(""), "fixture");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(SealedTextTest, UnsealRejectsEveryLooseVariant) {
  const std::string sealed = SealText("header\nrow 1\n");
  std::string upper = sealed;
  const size_t digit = upper.find_first_of("abcdef", upper.size() - 9);
  ASSERT_NE(digit, std::string::npos) << "fixture CRC needs a letter digit";
  upper[digit] = static_cast<char>(upper[digit] - 'a' + 'A');
  const std::string variants[] = {
      sealed + "extra\n",                           // line after footer
      sealed.substr(0, sealed.size() - 1),           // final \n removed
      sealed.substr(0, sealed.size() - 2) + "\n",    // 7 hex digits
      "header\nrow 1" + sealed.substr(13),           // footer mid-line
      upper,                                         // case-flipped digit
      "",                                            // empty file
  };
  for (const std::string& v : variants) {
    auto body = UnsealText(v, "fixture.tsv");
    ASSERT_FALSE(body.ok()) << "accepted: " << v;
    EXPECT_EQ(body.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(body.status().message().find("fixture.tsv"), std::string::npos)
        << body.status().ToString();
  }
}

TEST(SealedTextTest, FooterLineDetection) {
  EXPECT_TRUE(HasSealFooterLine(SealText("x\n")));
  EXPECT_TRUE(HasSealFooterLine("# crc32 "));
  EXPECT_FALSE(HasSealFooterLine("0 1.0 # crc32 \n"));
  EXPECT_FALSE(HasSealFooterLine("# hand-written\n0 1.0\n"));
}

TEST(FnvMixTest, MatchesFnv1aOverLittleEndianBytes) {
  uint64_t expected = 14695981039346656037ULL;
  for (const uint8_t byte : {0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}) {
    expected ^= byte;
    expected *= 1099511628211ULL;
  }
  EXPECT_EQ(FnvMix(14695981039346656037ULL, 0x0102030405060708ULL),
            expected);
}

TEST(AtomicFileTest, WritesAndReplaces) {
  const std::string path = "/tmp/coane_atomic_test.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  EXPECT_EQ(Slurp(path), "first");
  ASSERT_TRUE(WriteFileAtomic(path, "second, longer contents").ok());
  EXPECT_EQ(Slurp(path), "second, longer contents");
  // No temp file left behind.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(AtomicFileTest, RoundTripsBinary) {
  const std::string path = "/tmp/coane_atomic_binary.bin";
  std::string data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<char>(i));
  ASSERT_TRUE(WriteFileAtomic(path, data).ok());
  auto loaded = ReadFileToString(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), data);
  std::remove(path.c_str());
}

TEST(AtomicFileTest, InjectedFaultLeavesTargetIntact) {
  fault::Reset();
  const std::string path = "/tmp/coane_atomic_fault.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "good old contents").ok());

  fault::Arm("test.atomic_write", /*trigger_hit=*/1);
  Status st = WriteFileAtomic(path, "half-written replacement",
                              "test.atomic_write");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
  // The target still holds the previous complete contents and the torn
  // temp file was cleaned up.
  EXPECT_EQ(Slurp(path), "good old contents");
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());

  // Disarmed, the same write goes through.
  fault::Reset();
  ASSERT_TRUE(
      WriteFileAtomic(path, "replacement", "test.atomic_write").ok());
  EXPECT_EQ(Slurp(path), "replacement");
  std::remove(path.c_str());
  fault::Reset();
}

TEST(AtomicFileTest, ReadMissingFileIsIoError) {
  auto r = ReadFileToString("/tmp/coane_atomic_does_not_exist");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectionTest, FiresOnExactHit) {
  fault::Reset();
  fault::Arm("test.point", /*trigger_hit=*/3);
  EXPECT_FALSE(fault::ShouldFail("test.point"));  // hit 1
  EXPECT_FALSE(fault::ShouldFail("test.point"));  // hit 2
  EXPECT_TRUE(fault::ShouldFail("test.point"));   // hit 3 fires
  EXPECT_FALSE(fault::ShouldFail("test.point"));  // hit 4 passes again
  EXPECT_EQ(fault::HitCount("test.point"), 4);
  fault::Reset();
}

TEST(FaultInjectionTest, FailCountWindow) {
  fault::Reset();
  fault::Arm("test.window", /*trigger_hit=*/2, /*fail_count=*/2);
  EXPECT_FALSE(fault::ShouldFail("test.window"));
  EXPECT_TRUE(fault::ShouldFail("test.window"));
  EXPECT_TRUE(fault::ShouldFail("test.window"));
  EXPECT_FALSE(fault::ShouldFail("test.window"));
  fault::Reset();
}

TEST(FaultInjectionTest, UnarmedPointsOnlyCount) {
  fault::Reset();
  EXPECT_FALSE(fault::ShouldFail("test.unarmed"));
  EXPECT_FALSE(fault::ShouldFail("test.unarmed"));
  EXPECT_EQ(fault::HitCount("test.unarmed"), 2);
  fault::Reset();
  EXPECT_EQ(fault::HitCount("test.unarmed"), 0);
}

TEST(FaultInjectionTest, DisarmKeepsCounting) {
  fault::Reset();
  fault::Arm("test.disarm", /*trigger_hit=*/1);
  fault::Disarm("test.disarm");
  EXPECT_FALSE(fault::ShouldFail("test.disarm"));
  EXPECT_EQ(fault::HitCount("test.disarm"), 1);
  fault::Reset();
}

}  // namespace
}  // namespace coane
