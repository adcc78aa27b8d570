#ifndef COANE_GRAPH_GRAPH_IO_H_
#define COANE_GRAPH_GRAPH_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "graph/graph.h"

namespace coane {

/// Plain-text graph serialization, compatible with the common
/// one-edge-per-line format used by the LINQS attributed-network releases:
///
///   edges file:      "src dst [weight]"     (one per line, '#' comments)
///   attributes file: "node attr_index value" sparse triplets
///   labels file:     "node label"
///
/// Node ids must already be dense integers in [0, n).

/// What the loader does with a malformed line.
enum class BadLinePolicy {
  /// Reject the whole load on the first malformed line with a
  /// "path:line:column: message" diagnostic.
  kStrict,
  /// Quarantine the line (skip it, count it in the LoadSummary) and keep
  /// loading. Structural failures — unreadable file, a cap overrun — still
  /// fail the load.
  kSkip,
};

/// Knobs of the hardened loader. The zero-initialized default is the
/// historical behaviour: strict, no caps, sizes inferred from the data.
struct LoadOptions {
  BadLinePolicy bad_line_policy = BadLinePolicy::kStrict;
  /// As before: the node/attribute counts are inferred as max id + 1
  /// unless a larger value is given here.
  int64_t num_nodes = 0;
  int64_t num_attributes = 0;
  /// Caps, 0 = unlimited. A file that would exceed max_nodes or
  /// max_attr_dim in aggregate, or whose size exceeds max_file_bytes,
  /// fails fast with kResourceExhausted before memory is committed.
  /// Individual ids beyond a cap are a per-line error (strict) or a
  /// quarantined line (lenient).
  int64_t max_nodes = 0;
  int64_t max_attr_dim = 0;
  int64_t max_file_bytes = 0;
  /// Optional deadline/cancel token checked periodically while parsing.
  const RunContext* run_context = nullptr;
};

/// Per-load diagnosis filled by the hardened loader. In strict mode only
/// the counters before `quarantined_lines` can be non-zero (the first bad
/// line aborts the load); in lenient mode the counters say exactly what
/// was dropped, so "loaded with zero quarantined lines" certifies a clean
/// file.
struct LoadSummary {
  int64_t lines_parsed = 0;      ///< non-comment, non-empty lines seen
  int64_t edges_loaded = 0;      ///< edge lines accepted
  int64_t attributes_loaded = 0; ///< attribute triplets accepted
  int64_t labels_loaded = 0;     ///< label lines accepted
  int64_t duplicate_edges = 0;   ///< repeated {u,v} lines (weights summed)
  int64_t duplicate_attributes = 0; ///< repeated (node, attr) entries (summed)

  /// Degraded-input accounting: *missing* data is recognized, not
  /// rejected — these lines load (into the observation mask) in both
  /// strict and lenient mode and are never quarantined.
  int64_t missing_attr_cells = 0;  ///< explicit "nan" / empty-cell entries
  int64_t nodes_missing_attrs = 0; ///< nodes absent from the attribute file
  int64_t injected_attr_drops = 0; ///< rows dropped by graph.attr_drop

  int64_t quarantined_lines = 0; ///< lenient mode: lines dropped
  int64_t bad_tokens = 0;        ///< unparsable fields / wrong field count
  int64_t self_loops = 0;
  int64_t out_of_range_ids = 0;  ///< negative, overflowing, or beyond a cap
  int64_t non_finite_values = 0; ///< NaN/Inf weight or attribute value
  int64_t nonpositive_weights = 0;
  int64_t attr_dim_mismatches = 0; ///< attr index >= declared/capped dim

  /// First few "path:line:column: message" diagnostics of quarantined
  /// lines (capped so a fully corrupt file cannot balloon memory).
  std::vector<std::string> sample_diagnostics;

  /// "loaded N edges ... quarantined K lines (...)" one-liner for logs.
  std::string ToString() const;
};

/// Reads an edge list. `num_nodes` is inferred as max id + 1 unless a larger
/// value is passed.
Result<Graph> LoadEdgeList(const std::string& path, int64_t num_nodes = 0);

/// Loads a full attributed graph from three files. `attributes_path` or
/// `labels_path` may be empty to skip that component; `num_attributes` is
/// inferred as max index + 1 unless a larger value is passed.
Result<Graph> LoadAttributedGraph(const std::string& edges_path,
                                  const std::string& attributes_path,
                                  const std::string& labels_path,
                                  int64_t num_nodes = 0,
                                  int64_t num_attributes = 0);

/// Hardened variant: validates every line against `options`, returning
/// file:line:column diagnostics (strict) or quarantining bad lines into
/// `summary` (lenient). `summary` may be null. Fault points:
/// "graph_io.load" (fires per file opened) and "graph.attr_drop" (rate
/// fault keyed by node id; drops whole attribute rows into the mask —
/// see fault::ArmRate).
///
/// Missing attributes are data, not errors, in *both* policies: a
/// 3-field line whose value is `nan` and a 2-field "node index" line
/// (empty trailing cell) record a masked cell; a node that never appears
/// in the attribute file gets an unobserved row in the mask. `inf`
/// remains a quarantinable non-finite value — corruption, not
/// missingness. The mask lands in Graph::attr_observed() /
/// Graph::missing_attr_cells() and the counters above.
Result<Graph> LoadAttributedGraph(const std::string& edges_path,
                                  const std::string& attributes_path,
                                  const std::string& labels_path,
                                  const LoadOptions& options,
                                  LoadSummary* summary = nullptr);

/// Writes the three files (edges always; attributes/labels when present).
/// Each file is written atomically (temp + fsync + rename), so a crash
/// mid-save never leaves a truncated file. Fault point: "graph_io.save".
Status SaveAttributedGraph(const Graph& graph, const std::string& edges_path,
                           const std::string& attributes_path,
                           const std::string& labels_path);

/// Writes an n x d' embedding matrix as "# node embedding[d']" followed
/// by "node v1 v2 ... vd" lines, sealed (SealText in common/checksum.h)
/// and written atomically (see SaveAttributedGraph). Fault point:
/// "graph_io.save".
Status SaveEmbeddings(const DenseMatrix& embeddings,
                      const std::string& path);

/// Reads embeddings written by SaveEmbeddings. Text that starts with that
/// header or has a footer line must unseal (UnsealText): a CRC mismatch,
/// a truncated or missing footer, or anything after the footer returns
/// kDataLoss naming the path instead of consuming corrupt floats. Only
/// text with neither (hand-written, legacy) loads unsealed.
Result<DenseMatrix> LoadEmbeddings(const std::string& path);

}  // namespace coane

#endif  // COANE_GRAPH_GRAPH_IO_H_
