#include "stream/provenance.h"

#include <utility>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/flags.h"
#include "common/string_utils.h"

namespace coane {
namespace stream {
namespace {

constexpr char kPubHeader[] = "COANE-PUB v1";

Status Corrupt(const std::string& path, const std::string& why) {
  return Status::DataLoss("publish sidecar " + path + ": " + why);
}

}  // namespace

std::string PublishInfoPathFor(const std::string& embeddings_path) {
  return embeddings_path + ".pub";
}

uint64_t StreamFingerprint(uint64_t config_fingerprint, uint64_t log_seq,
                           uint64_t chain_fingerprint) {
  uint64_t h = FnvMix(config_fingerprint, 0x5712EA4ULL);  // section tag
  h = FnvMix(h, log_seq);
  h = FnvMix(h, chain_fingerprint);
  return h;
}

Status SavePublishInfo(const PublishInfo& info, const std::string& path) {
  std::string body(kPubHeader);
  body += "\n";
  body += "log_seq " + std::to_string(info.log_seq) + "\n";
  body += "chain_fingerprint " + Hex64(info.chain_fingerprint) + "\n";
  body += "mask_fingerprint " + Hex64(info.mask_fingerprint) + "\n";
  body += "config_fingerprint " + Hex64(info.config_fingerprint) + "\n";
  body += "created_unix_ms " + std::to_string(info.created_unix_ms) + "\n";
  body += std::string("missing_attrs ") +
          MissingAttrPolicyName(info.missing_attrs) + "\n";
  body += "unobserved " + std::to_string(info.unobserved.size());
  for (const NodeId v : info.unobserved) {
    body += " " + std::to_string(v);
  }
  body += "\n";
  return WriteFileAtomic(path, SealText(std::move(body)), "stream.pub_save");
}

Result<PublishInfo> LoadPublishInfo(const std::string& path) {
  auto read = ReadFileToString(path);
  if (!read.ok()) return read.status();

  auto body = UnsealText(read.value(), "publish sidecar " + path);
  if (!body.ok()) return body.status();

  const std::vector<std::string> lines = Split(body.value(), '\n');
  if (lines[0] != kPubHeader) return Corrupt(path, "bad header");
  PublishInfo info;
  bool saw_unobserved = false;
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) continue;
    const std::vector<std::string> tokens = SplitWhitespace(lines[i]);
    if (tokens.size() < 2) {
      return Corrupt(path, "malformed line '" + lines[i] + "'");
    }
    const std::string& key = tokens[0];
    if (key == "log_seq") {
      if (!flags::ParseWhole(tokens[1], &info.log_seq)) {
        return Corrupt(path, "bad log_seq");
      }
    } else if (key == "chain_fingerprint") {
      if (!flags::ParseWhole(tokens[1], &info.chain_fingerprint, 16)) {
        return Corrupt(path, "bad chain_fingerprint");
      }
    } else if (key == "mask_fingerprint") {
      if (!flags::ParseWhole(tokens[1], &info.mask_fingerprint, 16)) {
        return Corrupt(path, "bad mask_fingerprint");
      }
    } else if (key == "config_fingerprint") {
      if (!flags::ParseWhole(tokens[1], &info.config_fingerprint, 16)) {
        return Corrupt(path, "bad config_fingerprint");
      }
    } else if (key == "created_unix_ms") {
      if (!flags::ParseWhole(tokens[1], &info.created_unix_ms)) {
        return Corrupt(path, "bad created_unix_ms");
      }
    } else if (key == "missing_attrs") {
      auto policy = ParseMissingAttrPolicy(tokens[1]);
      if (!policy.ok()) return Corrupt(path, "bad missing_attrs policy");
      info.missing_attrs = policy.value();
    } else if (key == "unobserved") {
      size_t count = 0;
      if (!flags::ParseWhole(tokens[1], &count) ||
          tokens.size() != count + 2) {
        return Corrupt(path, "bad unobserved list");
      }
      info.unobserved.reserve(count);
      for (size_t t = 2; t < tokens.size(); ++t) {
        NodeId v = 0;
        if (!flags::ParseWhole(tokens[t], &v) || v < 0) {
          return Corrupt(path, "bad unobserved id '" + tokens[t] + "'");
        }
        if (!info.unobserved.empty() && v <= info.unobserved.back()) {
          return Corrupt(path, "unobserved ids must be sorted unique");
        }
        info.unobserved.push_back(v);
      }
      saw_unobserved = true;
    } else {
      return Corrupt(path, "unknown key '" + key + "'");
    }
  }
  if (!saw_unobserved) return Corrupt(path, "missing unobserved line");
  return info;
}

}  // namespace stream
}  // namespace coane
