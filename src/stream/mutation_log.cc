#include "stream/mutation_log.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/flags.h"
#include "common/string_utils.h"

namespace coane {
namespace stream {
namespace {

constexpr char kLogHeader[] = "COANE-MLOG v1";

bool ParseFiniteFloat(const std::string& token, float* out) {
  char* end = nullptr;
  const float value = std::strtof(token.c_str(), &end);
  if (end != token.c_str() + token.size() || token.empty()) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

std::string FormatFloat(float value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(value));
  return buf;
}

// "<seq> <unix_ms> <body> #<crc32hex>". The CRC covers the bytes before
// " #".
std::string FormatRecordLine(const Mutation& m) {
  std::string line = std::to_string(m.seq) + " " +
                     std::to_string(m.unix_ms) + " " +
                     FormatMutationBody(m);
  return line + " #" + Hex32(Crc32(line));
}

Status ParseRecordLine(const std::string& line, uint64_t expected_seq,
                       Mutation* out) {
  const size_t hash = line.rfind(" #");
  if (hash == std::string::npos || line.size() - hash != 10) {
    return Status::DataLoss("record has no CRC footer");
  }
  uint32_t recorded = 0;
  if (!flags::ParseWhole(std::string_view(line).substr(hash + 2), &recorded,
                         16)) {
    return Status::DataLoss("record has a malformed CRC footer");
  }
  const uint32_t actual = Crc32(line.data(), hash);
  if (actual != recorded) {
    return Status::DataLoss("record CRC mismatch");
  }
  // CRC holds; the payload is now trusted enough to parse strictly.
  const std::string payload = line.substr(0, hash);
  const size_t sp1 = payload.find(' ');
  const size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : payload.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) {
    return Status::DataLoss("record is missing seq/timestamp fields");
  }
  uint64_t seq = 0;
  int64_t unix_ms = 0;
  if (!flags::ParseWhole(payload.substr(0, sp1), &seq) ||
      !flags::ParseWhole(payload.substr(sp1 + 1, sp2 - sp1 - 1), &unix_ms)) {
    return Status::DataLoss("record has malformed seq/timestamp fields");
  }
  if (seq == 0) return Status::DataLoss("record sequence 0 is reserved");
  if (expected_seq != 0 && seq != expected_seq) {
    return Status::DataLoss("record sequence " + std::to_string(seq) +
                            " breaks the chain (expected " +
                            std::to_string(expected_seq) + ")");
  }
  auto body = ParseMutationBody(payload.substr(sp2 + 1));
  if (!body.ok()) return body.status();
  *out = std::move(body).ValueOrDie();
  out->seq = seq;
  out->unix_ms = unix_ms;
  return Status::OK();
}

Status FlushAndSync(std::FILE* file, const std::string& path) {
  if (std::fflush(file) != 0) {
    return Status::IoError("flush of mutation log " + path + " failed: " +
                           std::strerror(errno));
  }
  if (::fsync(fileno(file)) != 0) {
    return Status::IoError("fsync of mutation log " + path + " failed: " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

int64_t NowUnixMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

const char* MutationOpName(MutationOp op) {
  switch (op) {
    case MutationOp::kAddEdge:
      return "edge+";
    case MutationOp::kRemoveEdge:
      return "edge-";
    case MutationOp::kAddNode:
      return "node+";
    case MutationOp::kSetAttr:
      return "attr";
  }
  return "?";
}

Result<Mutation> ParseMutationBody(const std::string& body) {
  const std::vector<std::string> tokens = SplitWhitespace(body);
  if (tokens.empty()) {
    return Status::InvalidArgument("empty mutation body");
  }
  Mutation m;
  const std::string& op = tokens[0];
  auto node_arg = [&](size_t i, NodeId* out) -> Status {
    NodeId id = 0;
    if (!flags::ParseWhole(tokens[i], &id) || id < 0) {
      return Status::InvalidArgument("mutation '" + body +
                                     "': bad node id '" + tokens[i] + "'");
    }
    *out = id;
    return Status::OK();
  };
  if (op == "edge+") {
    if (tokens.size() != 4) {
      return Status::InvalidArgument("edge+ needs: edge+ <u> <v> <weight>");
    }
    m.op = MutationOp::kAddEdge;
    COANE_RETURN_IF_ERROR(node_arg(1, &m.u));
    COANE_RETURN_IF_ERROR(node_arg(2, &m.v));
    if (!ParseFiniteFloat(tokens[3], &m.value) || m.value <= 0.0f) {
      return Status::InvalidArgument(
          "edge+ weight '" + tokens[3] + "' must be a finite positive number");
    }
    if (m.u == m.v) {
      return Status::InvalidArgument("edge+ rejects self-loops");
    }
    return m;
  }
  if (op == "edge-") {
    if (tokens.size() != 3) {
      return Status::InvalidArgument("edge- needs: edge- <u> <v>");
    }
    m.op = MutationOp::kRemoveEdge;
    COANE_RETURN_IF_ERROR(node_arg(1, &m.u));
    COANE_RETURN_IF_ERROR(node_arg(2, &m.v));
    if (m.u == m.v) {
      return Status::InvalidArgument("edge- rejects self-loops");
    }
    return m;
  }
  if (op == "node+") {
    if (tokens.size() != 3) {
      return Status::InvalidArgument("node+ needs: node+ <id> <label>");
    }
    m.op = MutationOp::kAddNode;
    COANE_RETURN_IF_ERROR(node_arg(1, &m.u));
    if (!flags::ParseWhole(tokens[2], &m.label) || m.label < -1) {
      return Status::InvalidArgument("node+ label '" + tokens[2] +
                                     "' must be an integer >= -1");
    }
    return m;
  }
  if (op == "attr") {
    if (tokens.size() != 4) {
      return Status::InvalidArgument("attr needs: attr <node> <col> <value>");
    }
    m.op = MutationOp::kSetAttr;
    COANE_RETURN_IF_ERROR(node_arg(1, &m.u));
    if (!flags::ParseWhole(tokens[2], &m.col) || m.col < 0) {
      return Status::InvalidArgument("attr column '" + tokens[2] +
                                     "' must be a non-negative integer");
    }
    if (tokens[3] == "nan") {
      m.masked = true;
      m.value = 0.0f;
      return m;
    }
    if (!ParseFiniteFloat(tokens[3], &m.value)) {
      return Status::InvalidArgument(
          "attr value '" + tokens[3] + "' must be finite (or 'nan' to mask)");
    }
    return m;
  }
  return Status::InvalidArgument("unknown mutation op '" + op +
                                 "' (want edge+, edge-, node+, attr)");
}

std::string FormatMutationBody(const Mutation& m) {
  switch (m.op) {
    case MutationOp::kAddEdge:
      return std::string("edge+ ") + std::to_string(m.u) + " " +
             std::to_string(m.v) + " " + FormatFloat(m.value);
    case MutationOp::kRemoveEdge:
      return std::string("edge- ") + std::to_string(m.u) + " " +
             std::to_string(m.v);
    case MutationOp::kAddNode:
      return std::string("node+ ") + std::to_string(m.u) + " " +
             std::to_string(m.label);
    case MutationOp::kSetAttr:
      return std::string("attr ") + std::to_string(m.u) + " " +
             std::to_string(m.col) + " " +
             (m.masked ? std::string("nan") : FormatFloat(m.value));
  }
  return "?";
}

Result<MutationLogContents> ReadMutationLog(const std::string& path) {
  MutationLogContents contents;
  std::FILE* probe = std::fopen(path.c_str(), "rb");
  if (probe == nullptr) {
    if (errno == ENOENT) return contents;  // a log not yet created is empty
    return Status::IoError("cannot open mutation log " + path + ": " +
                           std::strerror(errno));
  }
  std::fclose(probe);
  auto read = ReadFileToString(path);
  if (!read.ok()) return read.status();
  const std::string& data = read.value();
  if (data.empty()) return contents;

  auto fail_tail = [&](int64_t offset, const std::string& why) {
    contents.tail_bytes = static_cast<int64_t>(data.size()) - offset;
    contents.tail_error = why;
    return contents;
  };

  // Header line.
  size_t offset = data.find('\n');
  if (offset == std::string::npos ||
      data.substr(0, offset) != kLogHeader) {
    return fail_tail(0, "missing or corrupt log header");
  }
  ++offset;
  contents.valid_bytes = static_cast<int64_t>(offset);

  while (offset < data.size()) {
    const size_t eol = data.find('\n', offset);
    if (eol == std::string::npos) {
      return fail_tail(static_cast<int64_t>(offset),
                       "torn record (no trailing newline)");
    }
    const std::string line = data.substr(offset, eol - offset);
    Mutation m;
    const uint64_t expected =
        contents.last_seq == 0 ? 0 : contents.last_seq + 1;
    const Status st = ParseRecordLine(line, expected, &m);
    if (!st.ok()) {
      return fail_tail(static_cast<int64_t>(offset), st.message());
    }
    contents.mutations.push_back(m);
    contents.last_seq = m.seq;
    offset = eol + 1;
    contents.valid_bytes = static_cast<int64_t>(offset);
  }
  return contents;
}

Result<MutationLogContents> RecoverMutationLog(const std::string& path) {
  auto read = ReadMutationLog(path);
  if (!read.ok()) return read.status();
  MutationLogContents contents = std::move(read).ValueOrDie();
  if (contents.tail_bytes == 0) return contents;

  auto data = ReadFileToString(path);
  if (!data.ok()) return data.status();
  const std::string& bytes = data.value();
  const auto valid = static_cast<size_t>(contents.valid_bytes);

  // Quarantine first, truncate second: a crash between the two steps
  // leaves the tail both quarantined and still in the log — the next
  // recovery just quarantines it again, never loses it.
  std::string quarantine;
  const std::string qpath = path + ".quarantine";
  auto existing = ReadFileToString(qpath);
  if (existing.ok()) quarantine = std::move(existing).ValueOrDie();
  quarantine.append(bytes, valid, bytes.size() - valid);
  COANE_RETURN_IF_ERROR(WriteFileAtomic(qpath, quarantine));
  COANE_RETURN_IF_ERROR(WriteFileAtomic(path, bytes.substr(0, valid)));

  contents.tail_bytes = 0;
  contents.tail_error.clear();
  return contents;
}

MutationLogWriter::MutationLogWriter(std::string path, std::FILE* file,
                                     uint64_t last_seq)
    : path_(std::move(path)), file_(file), last_seq_(last_seq) {}

MutationLogWriter::MutationLogWriter(MutationLogWriter&& other) noexcept
    : path_(std::move(other.path_)),
      file_(other.file_),
      last_seq_(other.last_seq_),
      poisoned_(other.poisoned_) {
  other.file_ = nullptr;
}

MutationLogWriter& MutationLogWriter::operator=(
    MutationLogWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    path_ = std::move(other.path_);
    file_ = other.file_;
    last_seq_ = other.last_seq_;
    poisoned_ = other.poisoned_;
    other.file_ = nullptr;
  }
  return *this;
}

MutationLogWriter::~MutationLogWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<MutationLogWriter> MutationLogWriter::Open(const std::string& path) {
  auto read = ReadMutationLog(path);
  if (!read.ok()) return read.status();
  const MutationLogContents& contents = read.value();
  if (contents.tail_bytes != 0) {
    return Status::DataLoss(
        "mutation log " + path + " has " +
        std::to_string(contents.tail_bytes) + " invalid tail byte(s) (" +
        contents.tail_error + "); run recovery before appending");
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open mutation log " + path +
                           " for append: " + std::strerror(errno));
  }
  MutationLogWriter writer(path, file, contents.last_seq);
  if (contents.valid_bytes == 0) {
    // Fresh log: the header is the first durable write.
    const std::string header = std::string(kLogHeader) + "\n";
    if (std::fwrite(header.data(), 1, header.size(), file) != header.size()) {
      return Status::IoError("cannot write mutation log header to " + path);
    }
    COANE_RETURN_IF_ERROR(FlushAndSync(file, path));
  }
  return writer;
}

Result<uint64_t> MutationLogWriter::Append(const Mutation& m) {
  if (file_ == nullptr || poisoned_) {
    return Status::FailedPrecondition(
        "mutation log writer for " + path_ +
        " is dead after a failed append; recover and reopen");
  }
  Mutation record = m;
  record.seq = last_seq_ + 1;
  if (record.unix_ms == 0) record.unix_ms = NowUnixMs();
  const std::string line = FormatRecordLine(record) + "\n";

  if (fault::ShouldFail("stream.log_append")) {
    // Torn-write simulation: half the record reaches the disk, then the
    // "crash". The log now ends mid-record, exactly what recovery must
    // truncate and quarantine.
    const size_t half = line.size() / 2;
    (void)std::fwrite(line.data(), 1, half, file_);
    (void)std::fflush(file_);
    (void)::fsync(fileno(file_));
    poisoned_ = true;
    return Status::IoError("injected fault at stream.log_append for " +
                           path_);
  }

  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    poisoned_ = true;
    return Status::IoError("short write appending to mutation log " + path_ +
                           ": " + std::strerror(errno));
  }
  const Status st = FlushAndSync(file_, path_);
  if (!st.ok()) {
    poisoned_ = true;
    return st;
  }
  last_seq_ = record.seq;
  return record.seq;
}

}  // namespace stream
}  // namespace coane
