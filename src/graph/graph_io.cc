#include "graph/graph_io.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_set>
#include <utility>

#include "common/atomic_file.h"
#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/string_utils.h"
#include "graph/graph_builder.h"

namespace coane {
namespace {

// What SaveEmbeddings writes first: "# node embedding[<dim>]".
constexpr char kEmbeddingsHeader[] = "# node embedding[";

// Keep only this many example diagnostics in a LoadSummary so a fully
// corrupt multi-gigabyte file cannot balloon memory through error strings.
constexpr size_t kMaxSampleDiagnostics = 8;
// Deadline/cancel granularity while scanning large files.
constexpr int64_t kLinesPerContextCheck = 4096;

// A whitespace-separated field with its 1-based column in the raw line.
struct Token {
  std::string text;
  int column = 1;
};

std::vector<Token> TokenizeWithColumns(const std::string& line) {
  std::vector<Token> tokens;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i >= line.size()) break;
    const size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    tokens.push_back(
        {line.substr(start, i - start), static_cast<int>(start) + 1});
  }
  return tokens;
}

// Strict integer parse (no sign-less floats, no trailing garbage).
// `overflow` distinguishes "not a number" from "a number too large".
bool ParseId(const std::string& s, int64_t* out, bool* overflow) {
  *overflow = false;
  const char* begin = s.data();
  const char* end = begin + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  if (ec == std::errc::result_out_of_range) {
    *overflow = true;
    return false;
  }
  return ec == std::errc() && ptr == end;
}

// Full-token double parse. Trailing garbage fails; "inf"/"nan"/overflowing
// literals parse but report finite=false so callers can count them as
// non-finite values rather than bad tokens.
bool ParseDouble(const std::string& s, double* out, bool* finite) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') return false;
  *finite = std::isfinite(*out) && errno != ERANGE;
  return true;
}

std::string Diagnostic(const std::string& path, int64_t line, int column,
                       const std::string& message) {
  return path + ":" + std::to_string(line) + ":" + std::to_string(column) +
         ": " + message;
}

// Routes one malformed line to the active policy: strict mode returns the
// diagnostic as an error (aborting the load), lenient mode records it in
// the summary and returns OK so the caller can skip the line.
class LineDiagnostics {
 public:
  LineDiagnostics(const LoadOptions& options, LoadSummary* summary)
      : options_(options), summary_(summary) {}

  Status Flag(const std::string& path, int64_t line, int column,
              const std::string& message, int64_t LoadSummary::*counter,
              StatusCode code = StatusCode::kInvalidArgument) {
    summary_->*counter += 1;
    const std::string diag = Diagnostic(path, line, column, message);
    if (options_.bad_line_policy == BadLinePolicy::kStrict) {
      return Status(code, diag);
    }
    summary_->quarantined_lines += 1;
    if (summary_->sample_diagnostics.size() < kMaxSampleDiagnostics) {
      summary_->sample_diagnostics.push_back(diag);
    }
    return Status::OK();
  }

 private:
  const LoadOptions& options_;
  LoadSummary* summary_;
};

// Opens `path`, enforcing the file-size cap up front, and iterates the
// non-comment, non-empty lines with their 1-based line numbers.
class LineScanner {
 public:
  Status Open(const std::string& path, const LoadOptions& options) {
    path_ = path;
    if (fault::ShouldFail("graph_io.load")) {
      return Status::IoError("injected fault at graph_io.load opening " +
                             path);
    }
    in_.open(path, std::ios::binary);
    if (!in_) return Status::IoError("cannot open " + path);
    if (options.max_file_bytes > 0) {
      in_.seekg(0, std::ios::end);
      const auto bytes = static_cast<int64_t>(in_.tellg());
      in_.seekg(0, std::ios::beg);
      if (bytes > options.max_file_bytes) {
        return Status::ResourceExhausted(
            path + " is " + std::to_string(bytes) +
            " bytes, over the max_file_bytes cap of " +
            std::to_string(options.max_file_bytes));
      }
    }
    return Status::OK();
  }

  // Fills `tokens` with the next data line; false at end of file.
  bool Next(std::vector<Token>* tokens, int64_t* line_number) {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_no_;
      const std::string trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#') continue;
      *tokens = TokenizeWithColumns(line);
      *line_number = line_no_;
      return true;
    }
    return false;
  }

  const std::string& path() const { return path_; }

 private:
  std::ifstream in_;
  std::string path_;
  int64_t line_no_ = 0;
};

// Shared by the three per-file loaders below: parse a token that must be a
// node id within [0, limit). Returns false when the line must be skipped
// (lenient) — `status` carries the error in strict mode.
bool CheckNodeId(LineDiagnostics* diag, const LineScanner& scanner,
                 int64_t line, const Token& token, int64_t limit,
                 const char* what, int64_t* id, Status* status) {
  bool overflow = false;
  if (!ParseId(token.text, id, &overflow)) {
    *status = overflow
                  ? diag->Flag(scanner.path(), line, token.column,
                               std::string(what) + " '" + token.text +
                                   "' overflows",
                               &LoadSummary::out_of_range_ids,
                               StatusCode::kOutOfRange)
                  : diag->Flag(scanner.path(), line, token.column,
                               std::string("bad ") + what + " '" +
                                   token.text + "' (not an integer)",
                               &LoadSummary::bad_tokens);
    return false;
  }
  if (*id < 0 || *id >= limit) {
    *status = diag->Flag(scanner.path(), line, token.column,
                         std::string(what) + " " + token.text +
                             " out of range [0, " + std::to_string(limit) +
                             ")",
                         &LoadSummary::out_of_range_ids,
                         StatusCode::kOutOfRange);
    return false;
  }
  return true;
}

}  // namespace

std::string LoadSummary::ToString() const {
  std::ostringstream out;
  out << "loaded " << edges_loaded << " edges";
  if (attributes_loaded > 0) out << ", " << attributes_loaded << " attributes";
  if (labels_loaded > 0) out << ", " << labels_loaded << " labels";
  if (duplicate_edges > 0) out << "; " << duplicate_edges << " duplicate edge(s) merged";
  if (duplicate_attributes > 0) {
    out << "; " << duplicate_attributes << " duplicate attribute(s) merged";
  }
  if (missing_attr_cells > 0 || nodes_missing_attrs > 0 ||
      injected_attr_drops > 0) {
    out << "; missing attrs (cells " << missing_attr_cells << ", nodes "
        << nodes_missing_attrs << ", injected drops " << injected_attr_drops
        << ")";
  }
  if (quarantined_lines > 0) {
    out << "; quarantined " << quarantined_lines << " line(s)"
        << " (bad tokens " << bad_tokens
        << ", self-loops " << self_loops
        << ", out-of-range ids " << out_of_range_ids
        << ", non-finite values " << non_finite_values
        << ", non-positive weights " << nonpositive_weights
        << ", attr-dim mismatches " << attr_dim_mismatches << ")";
  }
  return out.str();
}

Result<Graph> LoadEdgeList(const std::string& path, int64_t num_nodes) {
  return LoadAttributedGraph(path, "", "", num_nodes);
}

Result<Graph> LoadAttributedGraph(const std::string& edges_path,
                                  const std::string& attributes_path,
                                  const std::string& labels_path,
                                  int64_t num_nodes,
                                  int64_t num_attributes) {
  LoadOptions options;
  options.num_nodes = num_nodes;
  options.num_attributes = num_attributes;
  return LoadAttributedGraph(edges_path, attributes_path, labels_path,
                             options, nullptr);
}

Result<Graph> LoadAttributedGraph(const std::string& edges_path,
                                  const std::string& attributes_path,
                                  const std::string& labels_path,
                                  const LoadOptions& options,
                                  LoadSummary* out_summary) {
  LoadSummary local_summary;
  LoadSummary* summary = out_summary != nullptr ? out_summary : &local_summary;
  *summary = LoadSummary();
  LineDiagnostics diag(options, summary);

  // Ids must fit NodeId (int32) and stay under the configured node cap.
  const int64_t id_limit =
      options.max_nodes > 0
          ? std::min<int64_t>(options.max_nodes,
                              std::numeric_limits<NodeId>::max())
          : std::numeric_limits<NodeId>::max();
  if (options.num_nodes > id_limit) {
    return Status::ResourceExhausted(
        "requested num_nodes " + std::to_string(options.num_nodes) +
        " exceeds the max_nodes cap of " + std::to_string(id_limit));
  }
  const int64_t attr_limit =
      options.max_attr_dim > 0 ? options.max_attr_dim
                               : std::numeric_limits<int64_t>::max();
  // A declared attribute dimension is a contract: indices at or past it
  // are dimension mismatches, not silent growth.
  const int64_t declared_attr_dim =
      options.num_attributes > 0
          ? std::min(options.num_attributes, attr_limit)
          : attr_limit;
  if (options.num_attributes > attr_limit) {
    return Status::ResourceExhausted(
        "requested num_attributes " + std::to_string(options.num_attributes) +
        " exceeds the max_attr_dim cap of " + std::to_string(attr_limit));
  }

  // --- Edges.
  std::vector<Edge> edges;
  int64_t max_node = -1;
  std::unordered_set<uint64_t> seen_edges;
  {
    LineScanner scanner;
    COANE_RETURN_IF_ERROR(scanner.Open(edges_path, options));
    std::vector<Token> row;
    int64_t line = 0;
    while (scanner.Next(&row, &line)) {
      ++summary->lines_parsed;
      if (summary->lines_parsed % kLinesPerContextCheck == 0) {
        COANE_RETURN_IF_STOPPED(options.run_context, "graph_io.load");
      }
      if (row.size() < 2 || row.size() > 3) {
        COANE_RETURN_IF_ERROR(diag.Flag(
            scanner.path(), line, row.empty() ? 1 : row[0].column,
            "edge line needs 2 or 3 fields, got " +
                std::to_string(row.size()),
            &LoadSummary::bad_tokens));
        continue;
      }
      Status st;
      int64_t src = 0, dst = 0;
      if (!CheckNodeId(&diag, scanner, line, row[0], id_limit, "node id",
                       &src, &st)) {
        COANE_RETURN_IF_ERROR(st);
        continue;
      }
      if (!CheckNodeId(&diag, scanner, line, row[1], id_limit, "node id",
                       &dst, &st)) {
        COANE_RETURN_IF_ERROR(st);
        continue;
      }
      if (src == dst) {
        COANE_RETURN_IF_ERROR(diag.Flag(scanner.path(), line, row[0].column,
                                        "self-loop on node " +
                                            std::to_string(src),
                                        &LoadSummary::self_loops));
        continue;
      }
      float w = 1.0f;
      if (row.size() == 3) {
        double wv = 0.0;
        bool finite = false;
        if (!ParseDouble(row[2].text, &wv, &finite)) {
          COANE_RETURN_IF_ERROR(diag.Flag(scanner.path(), line,
                                          row[2].column,
                                          "bad weight '" + row[2].text + "'",
                                          &LoadSummary::bad_tokens));
          continue;
        }
        if (!finite) {
          COANE_RETURN_IF_ERROR(
              diag.Flag(scanner.path(), line, row[2].column,
                        "non-finite weight '" + row[2].text + "'",
                        &LoadSummary::non_finite_values));
          continue;
        }
        if (wv <= 0.0) {
          COANE_RETURN_IF_ERROR(
              diag.Flag(scanner.path(), line, row[2].column,
                        "non-positive weight '" + row[2].text + "'",
                        &LoadSummary::nonpositive_weights));
          continue;
        }
        w = static_cast<float>(wv);
      }
      const uint64_t key =
          (static_cast<uint64_t>(std::min(src, dst)) << 32) |
          static_cast<uint64_t>(std::max(src, dst));
      if (!seen_edges.insert(key).second) ++summary->duplicate_edges;
      edges.push_back(
          {static_cast<NodeId>(src), static_cast<NodeId>(dst), w});
      ++summary->edges_loaded;
      max_node = std::max(max_node, std::max(src, dst));
    }
  }
  const int64_t resolved_nodes = std::max(options.num_nodes, max_node + 1);

  GraphBuilder builder(resolved_nodes);
  builder.AddEdges(edges);

  // --- Attributes. Missing observations are first-class data here: a
  // `nan` value or an empty trailing cell ("node index" with no value)
  // records a masked cell instead of quarantining the line, and a node
  // that never appears gets an unobserved mask row. Only *corrupt* values
  // (inf, unparsable tokens) go through the bad-line policy.
  if (!attributes_path.empty()) {
    LineScanner scanner;
    COANE_RETURN_IF_ERROR(scanner.Open(attributes_path, options));
    std::vector<SparseMatrix::Triplet> triplets;
    // Cell keys are (node << 32 | col); attribute indices are capped far
    // below 2^32 in practice so the packing is collision-free.
    std::unordered_set<uint64_t> value_cells;
    std::unordered_set<uint64_t> marker_cells;
    std::vector<uint8_t> node_in_file(static_cast<size_t>(resolved_nodes), 0);
    int64_t max_attr = -1;
    std::vector<Token> row;
    int64_t line = 0;
    while (scanner.Next(&row, &line)) {
      ++summary->lines_parsed;
      if (summary->lines_parsed % kLinesPerContextCheck == 0) {
        COANE_RETURN_IF_STOPPED(options.run_context, "graph_io.load");
      }
      if (row.size() != 3 && row.size() != 2) {
        COANE_RETURN_IF_ERROR(diag.Flag(
            scanner.path(), line, row.empty() ? 1 : row[0].column,
            "attribute line needs 'node index value' (or 'node index' for "
            "a missing cell), got " +
                std::to_string(row.size()) + " field(s)",
            &LoadSummary::bad_tokens));
        continue;
      }
      Status st;
      int64_t node = 0, attr = 0;
      if (!CheckNodeId(&diag, scanner, line, row[0], resolved_nodes,
                       "node id", &node, &st)) {
        COANE_RETURN_IF_ERROR(st);
        continue;
      }
      bool overflow = false;
      if (!ParseId(row[1].text, &attr, &overflow) || attr < 0) {
        COANE_RETURN_IF_ERROR(diag.Flag(
            scanner.path(), line, row[1].column,
            "bad attribute index '" + row[1].text + "'",
            overflow ? &LoadSummary::out_of_range_ids
                     : &LoadSummary::bad_tokens,
            overflow ? StatusCode::kOutOfRange
                     : StatusCode::kInvalidArgument));
        continue;
      }
      if (attr >= declared_attr_dim) {
        COANE_RETURN_IF_ERROR(diag.Flag(
            scanner.path(), line, row[1].column,
            "attribute index " + std::to_string(attr) +
                " outside the declared/capped dimension " +
                std::to_string(declared_attr_dim),
            &LoadSummary::attr_dim_mismatches, StatusCode::kOutOfRange));
        continue;
      }
      bool is_missing = row.size() == 2;  // empty trailing cell
      double value = 0.0;
      if (!is_missing) {
        bool finite = false;
        if (!ParseDouble(row[2].text, &value, &finite)) {
          COANE_RETURN_IF_ERROR(diag.Flag(scanner.path(), line,
                                          row[2].column,
                                          "bad attribute value '" +
                                              row[2].text + "'",
                                          &LoadSummary::bad_tokens));
          continue;
        }
        if (!finite) {
          if (std::isnan(value)) {
            // An explicit "this observation is missing" marker.
            is_missing = true;
          } else {
            // inf / overflow: corruption, not missingness.
            COANE_RETURN_IF_ERROR(
                diag.Flag(scanner.path(), line, row[2].column,
                          "non-finite attribute value '" + row[2].text + "'",
                          &LoadSummary::non_finite_values));
            continue;
          }
        }
      }
      const uint64_t key = (static_cast<uint64_t>(node) << 32) |
                           (static_cast<uint64_t>(attr) & 0xFFFFFFFFULL);
      node_in_file[static_cast<size_t>(node)] = 1;
      max_attr = std::max(max_attr, attr);
      if (is_missing) {
        // A value for the same cell wins over a missing marker, in either
        // order; the contradiction is counted as a duplicate.
        if (value_cells.count(key) != 0 || !marker_cells.insert(key).second) {
          ++summary->duplicate_attributes;
          continue;
        }
        ++summary->missing_attr_cells;
        continue;
      }
      if (value_cells.count(key) != 0 || marker_cells.count(key) != 0) {
        ++summary->duplicate_attributes;
      }
      value_cells.insert(key);
      triplets.push_back({node, attr, static_cast<float>(value)});
      ++summary->attributes_loaded;
    }
    const int64_t resolved_attrs =
        std::max(options.num_attributes, max_attr + 1);
    if (resolved_attrs > 0) {
      // Node-level mask: a node the attribute file never mentions has an
      // unobserved row. The deterministic attr-drop fault (rate-armed,
      // keyed by node id — see fault::ArmRate) masks further rows here,
      // before imputation ever sees them.
      std::vector<uint8_t> observed(static_cast<size_t>(resolved_nodes), 1);
      std::vector<uint8_t> dropped(static_cast<size_t>(resolved_nodes), 0);
      for (int64_t v = 0; v < resolved_nodes; ++v) {
        if (node_in_file[static_cast<size_t>(v)] == 0) {
          observed[static_cast<size_t>(v)] = 0;
          ++summary->nodes_missing_attrs;
        }
      }
      for (int64_t v = 0; v < resolved_nodes; ++v) {
        if (observed[static_cast<size_t>(v)] != 0 &&
            fault::ShouldDrop("graph.attr_drop", static_cast<uint64_t>(v))) {
          observed[static_cast<size_t>(v)] = 0;
          dropped[static_cast<size_t>(v)] = 1;
          ++summary->injected_attr_drops;
        }
      }
      if (summary->injected_attr_drops > 0) {
        std::vector<SparseMatrix::Triplet> kept;
        kept.reserve(triplets.size());
        for (const SparseMatrix::Triplet& t : triplets) {
          if (dropped[static_cast<size_t>(t.row)] == 0) kept.push_back(t);
        }
        triplets = std::move(kept);
      }
      std::vector<MissingAttrCell> cells;
      cells.reserve(marker_cells.size());
      for (const uint64_t key : marker_cells) {
        const auto node = static_cast<NodeId>(key >> 32);
        if (value_cells.count(key) != 0) continue;  // value won later
        if (dropped[static_cast<size_t>(node)] != 0) continue;
        cells.push_back({node, static_cast<int64_t>(key & 0xFFFFFFFFULL)});
      }
      builder.SetAttributes(SparseMatrix::FromTriplets(
          resolved_nodes, resolved_attrs, std::move(triplets)));
      builder.SetAttrObserved(std::move(observed));
      builder.SetMissingAttrCells(std::move(cells));
    } else {
      builder.SetAttributes(SparseMatrix::FromTriplets(
          resolved_nodes, resolved_attrs, std::move(triplets)));
    }
  }

  // --- Labels.
  if (!labels_path.empty()) {
    LineScanner scanner;
    COANE_RETURN_IF_ERROR(scanner.Open(labels_path, options));
    std::vector<int32_t> labels(static_cast<size_t>(resolved_nodes), 0);
    std::vector<Token> row;
    int64_t line = 0;
    while (scanner.Next(&row, &line)) {
      ++summary->lines_parsed;
      if (summary->lines_parsed % kLinesPerContextCheck == 0) {
        COANE_RETURN_IF_STOPPED(options.run_context, "graph_io.load");
      }
      if (row.size() != 2) {
        COANE_RETURN_IF_ERROR(diag.Flag(
            scanner.path(), line, row.empty() ? 1 : row[0].column,
            "label line needs 'node label', got " +
                std::to_string(row.size()) + " field(s)",
            &LoadSummary::bad_tokens));
        continue;
      }
      Status st;
      int64_t node = 0;
      if (!CheckNodeId(&diag, scanner, line, row[0], resolved_nodes,
                       "node id", &node, &st)) {
        COANE_RETURN_IF_ERROR(st);
        continue;
      }
      int64_t label = 0;
      bool overflow = false;
      if (!ParseId(row[1].text, &label, &overflow) || label < 0 ||
          label > std::numeric_limits<int32_t>::max()) {
        COANE_RETURN_IF_ERROR(diag.Flag(
            scanner.path(), line, row[1].column,
            "bad label '" + row[1].text +
                "' (labels are non-negative integers)",
            &LoadSummary::bad_tokens));
        continue;
      }
      labels[static_cast<size_t>(node)] = static_cast<int32_t>(label);
      ++summary->labels_loaded;
    }
    builder.SetLabels(std::move(labels));
  }

  return std::move(builder).Build();
}

Status SaveAttributedGraph(const Graph& graph, const std::string& edges_path,
                           const std::string& attributes_path,
                           const std::string& labels_path) {
  // All three files go through WriteFileAtomic: a killed `generate` or
  // `train` never leaves a truncated file for a later run to consume.
  {
    std::ostringstream out;
    out << "# src dst weight\n";
    for (const Edge& e : graph.UndirectedEdges()) {
      out << e.src << " " << e.dst << " " << e.weight << "\n";
    }
    COANE_RETURN_IF_ERROR(
        WriteFileAtomic(edges_path, out.str(), "graph_io.save"));
  }
  if (!attributes_path.empty() && graph.num_attributes() > 0) {
    std::ostringstream out;
    out << "# node attr_index value\n";
    for (int64_t v = 0; v < graph.num_nodes(); ++v) {
      for (const SparseEntry& e : graph.attributes().Row(v)) {
        out << v << " " << e.col << " " << e.value << "\n";
      }
    }
    COANE_RETURN_IF_ERROR(
        WriteFileAtomic(attributes_path, out.str(), "graph_io.save"));
  }
  if (!labels_path.empty() && !graph.labels().empty()) {
    std::ostringstream out;
    out << "# node label\n";
    for (int64_t v = 0; v < graph.num_nodes(); ++v) {
      out << v << " " << graph.labels()[static_cast<size_t>(v)] << "\n";
    }
    COANE_RETURN_IF_ERROR(
        WriteFileAtomic(labels_path, out.str(), "graph_io.save"));
  }
  return Status::OK();
}

Status SaveEmbeddings(const DenseMatrix& embeddings,
                      const std::string& path) {
  std::ostringstream out;
  out << kEmbeddingsHeader << embeddings.cols() << "]\n";
  for (int64_t i = 0; i < embeddings.rows(); ++i) {
    out << i;
    for (int64_t j = 0; j < embeddings.cols(); ++j) {
      out << " " << embeddings.At(i, j);
    }
    out << "\n";
  }
  // Sealed so a reader can prove the floats it is about to consume are
  // the floats that were written.
  return WriteFileAtomic(path, SealText(std::move(out).str()),
                         "graph_io.save");
}

Result<DenseMatrix> LoadEmbeddings(const std::string& path) {
  auto raw = ReadFileToString(path);
  if (!raw.ok()) return raw.status();
  // Text that carries SaveEmbeddings' header or any footer line must
  // unseal in full, so corrupt, truncated or appended-to files are
  // kDataLoss instead of floats consumed silently. Only text with
  // neither (hand-written, legacy) loads unsealed.
  std::string_view content = raw.value();
  if (StartsWith(content, kEmbeddingsHeader) ||
      HasSealFooterLine(content)) {
    auto body = UnsealText(content, "embedding file " + path);
    if (!body.ok()) return body.status();
    content = body.value();
  }

  std::vector<std::vector<std::string>> data;
  size_t line_start = 0;
  while (line_start < content.size()) {
    size_t line_end = content.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = content.size();
    const std::string trimmed =
        Trim(content.substr(line_start, line_end - line_start));
    if (!trimmed.empty() && trimmed[0] != '#') {
      data.push_back(SplitWhitespace(trimmed));
    }
    line_start = line_end + 1;
  }
  if (data.empty()) return Status::InvalidArgument("empty embedding file");
  const int64_t dim = static_cast<int64_t>(data[0].size()) - 1;
  if (dim <= 0) return Status::InvalidArgument("embedding rows need >= 2 fields");
  DenseMatrix m(static_cast<int64_t>(data.size()), dim);
  for (const auto& row : data) {
    if (static_cast<int64_t>(row.size()) != dim + 1) {
      return Status::InvalidArgument("ragged embedding file " + path);
    }
    bool overflow = false;
    int64_t r = 0;
    if (!ParseId(row[0], &r, &overflow)) {
      return Status::InvalidArgument("bad node id '" + row[0] + "' in " +
                                     path);
    }
    if (r < 0 || r >= m.rows()) {
      return Status::OutOfRange("embedding node id out of range");
    }
    for (int64_t j = 0; j < dim; ++j) {
      double v = 0.0;
      bool finite = false;
      if (!ParseDouble(row[static_cast<size_t>(j) + 1], &v, &finite)) {
        return Status::InvalidArgument(
            "bad number '" + row[static_cast<size_t>(j) + 1] + "' in " +
            path);
      }
      m.At(r, j) = static_cast<float>(v);
    }
  }
  return m;
}

}  // namespace coane
