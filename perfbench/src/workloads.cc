#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "common/checksum.h"
#include "common/parallel/global_pool.h"
#include "common/parallel/parallel_for.h"
#include "core/artifact_manifest.h"
#include "core/checkpoint.h"
#include "core/coane_model.h"
#include "core/objective.h"
#include "datasets/dataset_registry.h"
#include "eval/metric_suite.h"
#include "graph/attr_impute.h"
#include "graph/edge_split.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "la/vector_ops.h"
#include "nn/linear.h"
#include "serve/frontend.h"
#include "serve/server.h"
#include "stream/graph_apply.h"
#include "stream/mutation_log.h"
#include "stream/pipeline.h"
#include "stream/reimpute.h"
#include "stream/walk_store.h"
#include "walk/context_generator.h"
#include "walk/cooccurrence.h"
#include "walk/negative_sampler.h"
#include "walk/random_walk.h"
#include "wire.h"

namespace perfbench {
namespace {

using coane::CoaneConfig;
using coane::CoaneModel;
using coane::DenseMatrix;
using coane::Graph;
using coane::NodeId;
using coane::Result;
using coane::Rng;
using coane::Status;
namespace fs = std::filesystem;
namespace serve = coane::serve;
namespace stream = coane::stream;

// A failure the run cannot continue past.
struct Fatal {
  std::string what;
};

void Must(RunState* run, const std::string& op, const Status& st) {
  run->ledger.Record(op, st.ok());
  if (!st.ok()) throw Fatal{op + ": " + st.ToString()};
}

template <typename T>
T Must(RunState* run, const std::string& op, Result<T> r) {
  run->ledger.Record(op, r.ok());
  if (!r.ok()) throw Fatal{op + ": " + r.status().ToString()};
  return std::move(r).ValueOrDie();
}

// A correctness check: counted as one operation, failed with a reason.
void Check(RunState* run, const std::string& op, bool ok,
           const std::string& reason) {
  if (ok) {
    run->ledger.Record(op, true);
  } else {
    run->ledger.Fail(op, reason);
  }
}

// Runs `f` inside span `name`; returns its wall seconds.
template <typename F>
double Timed(const char* name, F&& f) {
  Span span(name);
  const double start = NowSeconds();
  f();
  return NowSeconds() - start;
}

double Ms(double seconds) { return seconds * 1e3; }

// --- Inputs --------------------------------------------------------------

struct GraphFiles {
  std::string edges, attrs, labels;
};

struct Inputs {
  GraphFiles files;
  coane::LinkSplit split;  // split.train_graph is what the files hold
  int64_t nodes = 0;
  int num_classes = 0;
};

// `g` with node ids `a` and `b` exchanged.
Graph SwapNodes(RunState* run, const Graph& g, NodeId a, NodeId b) {
  auto id = [&](NodeId v) { return v == a ? b : v == b ? a : v; };
  coane::GraphBuilder builder(g.num_nodes());
  std::vector<coane::SparseMatrix::Triplet> cells;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (const auto& e : g.Neighbors(u)) {
      if (u < e.node) builder.AddEdge(id(u), id(e.node), e.weight);
    }
    for (const coane::SparseEntry& e : g.attributes().Row(u)) {
      cells.push_back({id(u), e.col, e.value});
    }
  }
  builder.SetAttributes(coane::SparseMatrix::FromTriplets(
      g.num_nodes(), g.num_attributes(), std::move(cells)));
  std::vector<int32_t> labels = g.labels();
  std::swap(labels[static_cast<size_t>(a)], labels[static_cast<size_t>(b)]);
  builder.SetLabels(std::move(labels));
  return Must(run, "input.relabel", std::move(builder).Build());
}

// The substrate `dataset` at `scale` and its 70/10/20 edge split, both from
// the run seed; the program under test sees only the written train graph.
Inputs MakeInputs(RunState* run, const std::string& dataset, double scale) {
  auto net = Must(run, "input.generate",
                  coane::MakeDataset(dataset, scale, run->opt.seed));
  Rng rng(run->opt.seed * 2 + 1);
  Inputs in;
  in.split = Must(run, "input.split",
                  coane::SplitEdges(net.graph, coane::EdgeSplitOptions(),
                                    &rng));
  // LoadAttributedGraph takes the node count from the edge file, so a
  // highest-id node without train edges would not survive the files.
  // Node ids carry no meaning in the substrate: swap that node with the
  // highest-id node that has edges, in the graph and in every split pair.
  const Graph& train = in.split.train_graph;
  const NodeId last = static_cast<NodeId>(train.num_nodes() - 1);
  if (train.Degree(last) == 0) {
    NodeId x = last;
    while (x > 0 && train.Degree(x) == 0) --x;
    in.split.train_graph = SwapNodes(run, train, x, last);
    for (auto* pairs : {&in.split.train_pos, &in.split.val_pos,
                        &in.split.test_pos, &in.split.train_neg,
                        &in.split.val_neg, &in.split.test_neg}) {
      for (auto& [u, v] : *pairs) {
        u = u == x ? last : u == last ? x : u;
        v = v == x ? last : v == last ? x : v;
      }
    }
    run->Note("input_relabel", "swapped node ids " + std::to_string(x) +
                                   " and " + std::to_string(last));
  }
  const std::string dir = run->opt.work_dir + "/input";
  fs::create_directories(dir);
  in.files = {dir + "/g.edges", dir + "/g.attrs", dir + "/g.labels"};
  Must(run, "input.write",
       coane::SaveAttributedGraph(in.split.train_graph, in.files.edges,
                                  in.files.attrs, in.files.labels));
  in.nodes = net.graph.num_nodes();
  in.num_classes = net.graph.num_classes();
  run->Note("input", dataset + " scale " + std::to_string(scale) + ": n=" +
                         std::to_string(in.nodes) + " attributes=" +
                         std::to_string(net.graph.num_attributes()) +
                         " train_edges=" +
                         std::to_string(in.split.train_graph.num_edges()));
  return in;
}

Graph LoadGraph(RunState* run, const GraphFiles& f, double* seconds) {
  Graph g;
  const double t = Timed("graph.LoadAttributedGraph", [&] {
    g = Must(run, "graph.load",
             coane::LoadAttributedGraph(f.edges, f.attrs, f.labels));
  });
  if (seconds != nullptr) *seconds = t;
  return g;
}

// --- Serving stack ---------------------------------------------------------

struct ServeStack {
  std::unique_ptr<serve::Server> server;
  std::unique_ptr<serve::TcpFrontend> frontend;  // destroyed first

  void Reset() {
    frontend.reset();
    server.reset();
  }
};

// Server::Start + TcpFrontend::Start with max_conns=2; returns the total and
// stores the Server::Start share in `start_s`.
double StartStack(RunState* run, const std::string& artifact,
                  const std::string& manifest, ServeStack* stack,
                  double* start_s) {
  stack->Reset();
  serve::ServerOptions options;
  options.snapshot.manifest_path = manifest;
  const double begin = NowSeconds();
  stack->server = std::make_unique<serve::Server>(options);
  *start_s = Timed("serve.Server::Start", [&] {
    Must(run, "serve.start", stack->server->Start(artifact));
  });
  serve::FrontendOptions fo;
  fo.port = 0;
  fo.max_conns = 2;
  stack->frontend =
      std::make_unique<serve::TcpFrontend>(stack->server.get(), fo);
  stack->server->set_overload_counters(&stack->frontend->counters());
  Timed("serve.TcpFrontend::Start", [&] {
    Must(run, "serve.frontend_start", stack->frontend->Start());
  });
  return NowSeconds() - begin;
}

void Connect(RunState* run, Conn* conn, int port) {
  run->ledger.Record("wire.connect", conn->Connect(port));
  if (conn->fd() < 0) throw Fatal{"cannot connect to 127.0.0.1"};
}

// Polls INFO on `conn` until `key=` reads at least `want`; returns the time
// it first did.
double WaitVisible(RunState* run, Conn* conn, const std::string& key,
                   uint64_t want) {
  const double give_up = NowSeconds() + 30.0;
  const std::string needle = " " + key + "=";
  while (NowSeconds() < give_up) {
    std::string reply;
    if (!conn->Send("INFO") || !conn->ReadLine(&reply)) break;
    const size_t at = reply.find(needle);
    if (reply.compare(0, 2, "OK") == 0 && at != std::string::npos &&
        std::strtoull(reply.c_str() + at + needle.size(), nullptr, 10) >=
            want) {
      run->ledger.Record("wire.info", true);
      return NowSeconds();
    }
  }
  run->ledger.Fail("wire.info", key + " never reached " +
                                    std::to_string(want));
  throw Fatal{"publish never became visible"};
}

// Server::Publish of `path`, then INFO on `observer` until `key` reaches
// `want`. Returns the seconds from `produced` to visibility and adds the
// Publish call's seconds to `publish_s`.
double PublishVisible(RunState* run, ServeStack* stack, Conn* observer,
                      const std::string& path, const std::string& key,
                      uint64_t want, double produced,
                      std::vector<double>* publish_s) {
  publish_s->push_back(Timed("serve.Server::Publish", [&] {
    Must(run, "serve.publish", stack->server->Publish(path));
  }));
  return WaitVisible(run, observer, key, want) - produced;
}

// Text artifacts + the manifest the server verifies them against.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(std::string dir)
      : dir_(std::move(dir)), manifest_path_(dir_ + "/manifest.tsv") {
    fs::create_directories(dir_);
  }

  std::string Write(RunState* run, const DenseMatrix& z) {
    const std::string path = PathOf(gen_++);
    Timed("graph.SaveEmbeddings", [&] {
      Must(run, "publish.save", coane::SaveEmbeddings(z, path));
    });
    const auto entry = Must(run, "publish.describe",
                            coane::DescribeArtifact("embeddings", path, 0));
    Must(run, "publish.manifest", manifest_.Record(entry));
    Must(run, "publish.manifest", manifest_.Save(manifest_path_));
    if (gen_ > 3) {  // keep disk use flat; generation gen-4 is long retired
      std::error_code ec;
      fs::remove(PathOf(gen_ - 4), ec);
      fs::remove(PathOf(gen_ - 4) + ".store", ec);
    }
    return path;
  }

  const std::string& manifest() const { return manifest_path_; }

 private:
  std::string PathOf(int64_t gen) const {
    return dir_ + "/gen_" + std::to_string(gen) + ".emb";
  }
  std::string dir_;
  std::string manifest_path_;
  coane::ArtifactManifest manifest_;
  int64_t gen_ = 0;
};

// --- Serving load ------------------------------------------------------------

// One share per evaluation task of the paper: node classification and
// node clustering look up neighbours (KNN), link prediction scores a pair
// (SCORE), and visualisation fetches the vector (GET). Equal weight per
// task is an assumption; the paper reports no query traffic.
constexpr double kKnnShare = 0.5;
constexpr double kScoreShare = 0.25;
constexpr int64_t kSampleEvery = 50;

RequestMix OpenMix(RunState* run, int64_t rows) {
  return RequestMix(run->opt.seed * 5 + 11, rows, kKnnShare, kScoreShare);
}

void RecordLoad(RunState* run, const std::string& phase,
                const LoadReport& r) {
  for (Op op : {Op::kKnn, Op::kScore, Op::kGet}) {
    const int i = static_cast<int>(op);
    const std::string name = phase + "." + OpName(op);
    run->ledger.Record(name, true, r.ok[i]);
    if (r.not_ok[i] > 0) {
      run->ledger.Fail(name, std::to_string(r.not_ok[i]) + " non-OK replies",
                       r.not_ok[i]);
    }
  }
  if (r.lost > 0) {
    run->ledger.Fail(phase + ".lost",
                     std::to_string(r.lost) + " requests without reply",
                     r.lost);
  }
  run->Note(phase + "_samples",
            "sent=" + std::to_string(r.sent) +
                " knn=" + std::to_string(r.latency[0].size()) +
                " score=" + std::to_string(r.latency[1].size()) +
                " get=" + std::to_string(r.latency[2].size()) +
                " seconds=" + std::to_string(r.seconds));
}

// The open loop's p50s come in whole request spacings: the server socket
// keeps Nagle on, so once one reply waits for the client's ACK, every
// later reply waits for the ACK that the next request carries. They show
// that socket gap and regressions above about one spacing; the server's
// own work shows in the closed-loop p50s below.
// p99 is taken per window of about 1200 expected KNN samples (12 beyond
// p99) and reported as the median over the windows, as a per-layer metric:
// it jumps between 1, 2 and 3 spacings from run to run. The report quotes
// the whole-run tail at the highest percentile its sample count supports.
void RecordOpenLoop(RunState* run, const LoadReport& r, double rate) {
  RecordLoad(run, "open", r);
  const int knn = static_cast<int>(Op::kKnn);
  const double window = 1200.0 / (rate * kKnnShare);
  int64_t windows = 0;
  const double p99 =
      WindowedPercentile(r.at[knn], r.latency[knn], window, 99.0, &windows);
  Check(run, "check.knn_p99_supported", windows >= 3,
        "only " + std::to_string(windows) + " windows support p99");
  run->E2e("knn_p50_ms", Ms(Median(r.latency[knn])), "ms");
  run->Layer("serve.knn_p99_ms", Ms(p99), "ms");
  run->E2e("score_p50_ms",
           Ms(Median(r.latency[static_cast<int>(Op::kScore)])), "ms");
  const int64_t n = static_cast<int64_t>(r.latency[knn].size());
  const double tail = HighestSupportedPercentile(n);
  char whole_run[64];
  std::snprintf(whole_run, sizeof(whole_run), "whole_run_p%g_ms=%.6f", tail,
                Ms(Percentile(r.latency[knn], tail)));
  run->Note("open_loop",
            "rate=" + std::to_string(rate) + "/s knn_samples=" +
                std::to_string(n) + " p99_windows=" +
                std::to_string(windows) + "x" + std::to_string(window) +
                "s " + whole_run);
  run->Layer("serve.sched_lag_p99_ms", Ms(Percentile(r.lateness, 99.0)),
             "ms");
}

// One request in flight per connection: each request carries the ACK of
// the previous reply, so Nagle never holds a reply and the per-request
// median is frontend + query engine + index work. These are per-layer
// metrics only: each request waits for two or three thread wake-ups, so
// on a shared 4-vCPU host the p50s moved up to 29% and the throughput
// (completions per second, median over 0.25 s windows) 10-26% between
// runs, beyond what the 0.25 maximum bound holds.
void RecordClosedLoop(RunState* run, const LoadReport& knn,
                      const LoadReport& score) {
  RecordLoad(run, "closed", knn);
  RecordLoad(run, "closed_score", score);
  const int k = static_cast<int>(Op::kKnn);
  const int s = static_cast<int>(Op::kScore);
  run->Layer("serve.knn_closed_p50_ms", Ms(Median(knn.latency[k])), "ms");
  run->Layer("serve.score_closed_p50_ms", Ms(Median(score.latency[s])), "ms");
  run->Layer("serve.knn_qps", WindowedRate(knn.at[k], 0.25), "queries/s");
}

// Wire replies must equal what the same server answers in-process.
void CheckSamples(RunState* run, serve::Server* server,
                  const LoadReport& r) {
  for (const auto& [line, reply] : r.samples) {
    const std::string local = server->HandleLine(line);
    Check(run, "check.wire_equals_inproc", local == reply,
          "'" + line + "' answered '" + reply.substr(0, 60) +
              "' on the wire, '" + local.substr(0, 60) + "' in-process");
  }
}

// KNN closed loop for `closed_s`, then SCORE closed loop for half that,
// over connections a and b; wire replies are checked against in-process.
void ClosedLoops(RunState* run, serve::Server* server, Conn* a, Conn* b,
                 int64_t rows, double closed_s) {
  RequestMix knn_only(run->opt.seed * 7 + 13, rows, 1.0, 0.0);
  RequestMix score_only(run->opt.seed * 7 + 17, rows, 0.0, 1.0);
  LoadReport knn, score;
  {
    Span span("serve.closed_loop");
    knn = RunClosedLoop({a, b}, &knn_only, NowSeconds() + closed_s,
                        kSampleEvery);
    score = RunClosedLoop({a, b}, &score_only, NowSeconds() + closed_s / 2,
                          kSampleEvery);
  }
  RecordClosedLoop(run, knn, score);
  CheckSamples(run, server, knn);
  CheckSamples(run, server, score);
}

// The seeded mix at `rate` for `open_s`, then the closed loops, over
// connections a and b.
void ServeLeg(RunState* run, ServeStack* stack, Conn* a, Conn* b,
              int64_t rows, double rate, double open_s, double closed_s) {
  RequestMix mix = OpenMix(run, rows);
  LoadReport open;
  {
    Span span("serve.open_loop");
    open = RunOpenLoop({a, b}, &mix, rate, NowSeconds() + open_s, nullptr,
                       kSampleEvery);
  }
  RecordOpenLoop(run, open, rate);
  CheckSamples(run, stack->server.get(), open);
  ClosedLoops(run, stack->server.get(), a, b, rows, closed_s);
}

// Front-end sheds and rejections count as failed requests.
int64_t RecordOverload(RunState* run, const ServeStack& stack) {
  const serve::OverloadCounters& c = stack.frontend->counters();
  const int64_t shed = c.requests_shed.load();
  const int64_t rejected = c.conns_rejected.load();
  run->ledger.Record("serve.shed", false, shed);
  run->ledger.Record("serve.rejected", false, rejected);
  return shed + rejected;
}

// --- Quality ---------------------------------------------------------------

void ScoreQuality(RunState* run, const DenseMatrix& z, const Inputs& in) {
  bool finite = true;
  for (int64_t i = 0; i < z.size(); ++i) finite &= std::isfinite(z.data()[i]);
  Check(run, "check.embeddings_finite", finite, "non-finite embedding");
  char crc[16];
  std::snprintf(crc, sizeof(crc), "%08x",
                coane::Crc32(z.data(), static_cast<size_t>(z.size()) *
                                           sizeof(float)));
  run->Note("embeddings_crc32", crc);
  coane::MetricSuite suite;
  const double t = Timed("eval.ComputeMetricSuite", [&] {
    suite = Must(run, "eval.suite",
                 coane::ComputeMetricSuite(
                     z, z, in.split.train_graph.labels(), in.num_classes,
                     in.split, coane::MetricSuiteOptions()));
  });
  run->E2e("micro_f1", suite.micro_f1, "score");
  run->E2e("link_auc", suite.link_auc, "score");
  run->E2e("nmi", suite.nmi, "score");
  run->Layer("eval.suite_s", t, "s");
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- Training ----------------------------------------------------------------

struct EpochSample {
  double wall = 0.0;
  double cpu = 0.0;
  int64_t minflt = 0;
};

double CpuSeconds(const rusage& ru) {
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

EpochSample TimedEpoch(RunState* run, CoaneModel* model) {
  rusage before{}, after{};
  getrusage(RUSAGE_SELF, &before);
  EpochSample s;
  s.wall = Timed("core.CoaneModel::TrainEpoch", [&] {
    Must(run, "core.epoch", model->TrainEpoch());
  });
  getrusage(RUSAGE_SELF, &after);
  s.cpu = CpuSeconds(after) - CpuSeconds(before);
  s.minflt = after.ru_minflt - before.ru_minflt;
  return s;
}

void RecordEpochs(RunState* run, const std::vector<EpochSample>& epochs,
                  int threads) {
  std::vector<double> wall, faults, util;
  for (const EpochSample& e : epochs) {
    wall.push_back(e.wall);
    faults.push_back(static_cast<double>(e.minflt));
    util.push_back(e.cpu / (e.wall * threads));
  }
  run->Layer("core.epoch_s", Median(wall), "s");
  run->Layer("core.epoch_minflt", Median(faults), "count");
  run->Layer("core.epoch_cpu_util", Median(util), "ratio");
}

// One epoch's batches replayed through the public nn/core calls, on the
// model's own contexts, features and co-occurrence, with fresh weights.
void ReplayTrainingPhases(RunState* run, const CoaneModel& model,
                          double epoch_s) {
  const CoaneConfig& cfg = model.config();
  const coane::ContextSet& contexts = model.contexts();
  const coane::SparseMatrix& x = model.features();
  const coane::CooccurrenceMatrices& co = model.cooccurrence();
  Rng rng(cfg.seed + 1);
  coane::ContextEncoder encoder(cfg.context_size, x.cols(), cfg.embedding_dim,
                                cfg.encoder_kind, &rng);
  std::vector<int64_t> dims = {cfg.embedding_dim};
  dims.insert(dims.end(), cfg.decoder_hidden.begin(),
              cfg.decoder_hidden.end());
  dims.push_back(x.cols());
  coane::Mlp decoder(dims, &rng);
  coane::AdamOptimizer adam;
  encoder.RegisterParams(&adam);
  decoder.RegisterParams(&adam);
  adam.set_learning_rate(cfg.learning_rate);
  const auto pairs = coane::TopKPositivePairs(co.d_tilde, co.k_p);
  coane::BatchNegativeSampler sampler(contexts, &co.d);

  const int64_t n = contexts.num_nodes();
  DenseMatrix z = encoder.EncodeAll(contexts, x);
  std::vector<uint8_t> in_batch(static_cast<size_t>(n), 0);
  std::vector<NodeId> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.Shuffle(&order);
  coane::ThreadPool* pool = coane::GlobalThreadPool();
  double encode = 0, objective = 0, dec = 0, grad = 0, step = 0;
  for (size_t start = 0; start < order.size();
       start += static_cast<size_t>(cfg.batch_size)) {
    const size_t end =
        std::min(order.size(), start + static_cast<size_t>(cfg.batch_size));
    const std::vector<NodeId> batch(order.begin() + static_cast<int64_t>(start),
                                    order.begin() + static_cast<int64_t>(end));
    const int64_t bs = static_cast<int64_t>(batch.size());
    encode += Timed("nn.ContextEncoder::EncodeNode", [&] {
      (void)coane::ParallelFor(
          pool, nullptr, "perfbench.encode", bs,
          coane::ElasticShards(pool, bs),
          [&](int64_t, int64_t b0, int64_t b1) -> Status {
            for (int64_t b = b0; b < b1; ++b) {
              const NodeId v = batch[static_cast<size_t>(b)];
              encoder.EncodeNode(contexts, x, v, z.Row(v));
              in_batch[static_cast<size_t>(v)] = 1;
            }
            return Status::OK();
          });
    });
    std::vector<std::vector<NodeId>> negatives(batch.size());
    for (size_t b = 0; b < batch.size(); ++b) {
      negatives[b] = sampler.Sample(batch[b], cfg.num_negative, batch, &rng);
    }
    DenseMatrix dz(n, cfg.embedding_dim, 0.0f);
    objective += Timed("core.ParallelBatchObjective", [&] {
      (void)coane::ParallelBatchObjective(z, &pairs, /*split_lr=*/true,
                                          &negatives, cfg.negative_weight,
                                          batch, in_batch, &dz);
    });
    dec += Timed("nn.Mlp::ForwardBackward", [&] {
      decoder.ZeroGrad();
      const std::vector<int64_t> rows(batch.begin(), batch.end());
      const DenseMatrix z_batch = z.SelectRows(rows);
      DenseMatrix x_batch(bs, x.cols(), 0.0f);
      for (int64_t b = 0; b < bs; ++b) {
        const NodeId v = batch[static_cast<size_t>(b)];
        for (const coane::SparseEntry& e : x.Row(v)) {
          x_batch.Row(b)[e.col] = e.value;
        }
      }
      const DenseMatrix x_hat = decoder.Forward(z_batch);
      DenseMatrix dx_hat;
      (void)coane::MseLoss(x_hat, x_batch, &dx_hat);
      dx_hat.Scale(cfg.attribute_gamma);
      const DenseMatrix dz_batch = decoder.Backward(dx_hat);
      for (int64_t b = 0; b < bs; ++b) {
        coane::Axpy(1.0f, dz_batch.Row(b),
                    dz.Row(batch[static_cast<size_t>(b)]), z.cols());
      }
    });
    grad += Timed("nn.ContextEncoder::AccumulateGradientInto", [&] {
      encoder.ZeroGrad();
      std::vector<std::vector<DenseMatrix>> shards(
          static_cast<size_t>(coane::kFixedReductionShards));
      (void)coane::ParallelFor(
          pool, nullptr, "perfbench.encoder_grad", bs,
          coane::kFixedReductionShards,
          [&](int64_t shard, int64_t b0, int64_t b1) -> Status {
            auto& buf = shards[static_cast<size_t>(shard)];
            buf = encoder.MakeGradBuffer();
            for (int64_t b = b0; b < b1; ++b) {
              const NodeId v = batch[static_cast<size_t>(b)];
              encoder.AccumulateGradientInto(contexts, x, v, dz.Row(v), &buf);
            }
            return Status::OK();
          });
      for (const auto& buf : shards) {
        if (!buf.empty()) encoder.MergeGrad(buf);
      }
    });
    step += Timed("nn.ApplyGrad", [&] {
      encoder.ApplyGrad(&adam);
      decoder.ApplyGrad(&adam);
    });
    for (NodeId v : batch) in_batch[static_cast<size_t>(v)] = 0;
  }
  const double renew = Timed("nn.ContextEncoder::EncodeAll",
                             [&] { z = encoder.EncodeAll(contexts, x); });
  run->Layer("nn.encode_s", encode, "s");
  run->Layer("core.objective_s", objective, "s");
  run->Layer("nn.decoder_s", dec, "s");
  run->Layer("nn.encoder_grad_s", grad, "s");
  run->Layer("nn.adam_s", step, "s");
  run->Layer("nn.renew_s", renew, "s");
  run->Layer("nn.phase_coverage",
             (encode + objective + dec + grad + step + renew) / epoch_s,
             "ratio");
}

// Median of `reps` timed calls of `f`.
template <typename F>
double MedianOf(int reps, const char* span, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) t.push_back(Timed(span, f));
  return Median(t);
}

void WalkProbes(RunState* run, const Graph& g, const CoaneConfig& cfg) {
  coane::RandomWalkConfig wc;
  wc.num_walks_per_node = cfg.num_walks;
  wc.walk_length = cfg.walk_length;
  coane::ContextOptions co;
  co.context_size = cfg.context_size;
  co.subsample_t = cfg.subsample_t;
  std::vector<coane::Walk> walks;
  std::unique_ptr<coane::ContextSet> contexts;
  coane::CooccurrenceMatrices cooc;
  Rng rng(cfg.seed);
  run->Layer("walk.walks_s", MedianOf(3, "walk.GenerateRandomWalks", [&] {
    walks = Must(run, "walk.walks", coane::GenerateRandomWalks(g, wc, &rng));
  }), "s");
  run->Layer("walk.contexts_s", MedianOf(3, "walk.GenerateContexts", [&] {
    contexts = std::make_unique<coane::ContextSet>(
        Must(run, "walk.contexts",
             coane::GenerateContexts(walks, g.num_nodes(), co, &rng)));
  }), "s");
  run->Layer("walk.cooccurrence_s", MedianOf(3, "walk.BuildCooccurrence", [&] {
    cooc = coane::BuildCooccurrence(g, *contexts);
  }), "s");
  run->Layer("walk.topk_s", MedianOf(3, "walk.TopKPositivePairs", [&] {
    (void)coane::TopKPositivePairs(cooc.d_tilde, cooc.k_p);
  }), "s");
}

// The decoder's widest GEMM: (256 x 256) . (256 x A).
void GemmProbe(RunState* run, int64_t attributes) {
  Rng rng(run->opt.seed);
  DenseMatrix a(256, 256), b(256, attributes);
  a.GaussianInit(&rng, 0.0f, 1.0f);
  b.GaussianInit(&rng, 0.0f, 1.0f);
  const double t =
      MedianOf(5, "la.DenseMatrix::MatMul", [&] { (void)a.MatMul(b); });
  const double gflop = 2.0 * 256 * 256 * static_cast<double>(attributes) / 1e9;
  run->Layer("la.decoder_gemm_gflop", gflop, "GFLOP");
  run->Layer("la.decoder_gemm_gflops", gflop / t, "GFLOP/s");
  run->Layer("la.decoder_gemm_mb",
             4.0 * (256.0 * 256 + 2.0 * 256 * attributes) / 1e6, "MB");
}

void CheckpointProbe(RunState* run, const CoaneModel& model) {
  const std::string path = run->opt.work_dir + "/probe.ckpt";
  run->Layer("core.checkpoint_save_s",
             MedianOf(3, "core.CoaneModel::SaveCheckpoint", [&] {
               Must(run, "core.checkpoint_save", model.SaveCheckpoint(path));
             }), "s");
}

// In-process latency of the open loop's requests, and connection set-up
// cost, against the live server. Run after the load conns are closed.
void ServeProbes(RunState* run, ServeStack* stack, int64_t rows,
                 const std::vector<double>& start_s,
                 const std::vector<double>& publish_s) {
  RequestMix mix = OpenMix(run, rows);
  std::vector<double> lat[3];
  for (int i = 0; i < 3000; ++i) {
    const Request r = mix.Next();
    const double t = Timed("serve.Server::HandleLine", [&] {
      run->ledger.Record("inproc." + std::string(OpName(r.op)),
                         stack->server->HandleLine(r.line).compare(0, 2,
                                                                   "OK") == 0);
    });
    lat[static_cast<int>(r.op)].push_back(t);
  }
  const double knn = Ms(Median(lat[static_cast<int>(Op::kKnn)]));
  run->Layer("serve.inproc_knn_p50_ms", knn, "ms");
  run->Layer("serve.inproc_score_p50_ms",
             Ms(Median(lat[static_cast<int>(Op::kScore)])), "ms");
  // From the closed loop: the open-loop p50 is one request spacing.
  run->Layer("serve.wire_knn_ms",
             run->layer.at("serve.knn_closed_p50_ms").value - knn, "ms");
  std::vector<double> rtt;
  for (int i = 0; i < 200; ++i) {
    double s = 0.0;
    const std::string reply = OneShot(stack->frontend->port(), "SCORE 0 1", &s);
    run->ledger.Record("wire.connect_score_close",
                       reply.compare(0, 2, "OK") == 0);
    rtt.push_back(s);
  }
  run->Layer("serve.connect_rtt_p50_ms", Ms(Median(rtt)), "ms");
  run->Layer("serve.start_s", Median(start_s), "s");
  run->Layer("serve.publish_ms", Ms(Median(publish_s)), "ms");
}

// --- Streaming ---------------------------------------------------------------

// Seeded churn over a pipeline: bursts of edge removals, re-adds of
// removed edges and attribute updates. Never touches an edge outside the
// train graph, so the held-out split stays held out.
class ChurnFeed {
 public:
  struct StepRecord {
    uint64_t before_seq = 0;
    uint64_t chain_before = 0;
    uint64_t after_seq = 0;
    std::string embeddings;
    stream::StepResult result;
  };

  ChurnFeed(RunState* run, const Graph& base, const GraphFiles& files,
               const CoaneConfig& config, const std::string& dir,
               uint64_t seed)
      : run_(run), rng_(seed), attributes_(base.num_attributes()),
        nodes_(base.num_nodes()) {
    fs::create_directories(dir);
    options_.log_path = dir + "/churn.mlog";
    options_.work_dir = dir + "/work";
    options_.init_edges = files.edges;
    options_.init_attrs = files.attrs;
    options_.init_labels = files.labels;
    options_.config = config;  // coane_streamd defaults: batch 64, refine 5
    for (NodeId u = 0; u < base.num_nodes(); ++u) {
      for (const auto& e : base.Neighbors(u)) {
        if (u < e.node) edges_.push_back({u, e.node, e.weight});
      }
    }
    writer_ = std::make_unique<stream::MutationLogWriter>(
        Must(run, "stream.log_open",
             stream::MutationLogWriter::Open(options_.log_path)));
  }

  // StreamPipeline::Open + the initial build.
  void OpenAndBuild() {
    pipeline_ = Must(run_, "stream.open",
                     stream::StreamPipeline::Open(options_));
    StepRecord r = Step(nullptr);
    initial_embeddings_ = r.embeddings;
  }

  // Appends one burst of `count` mutations; adds each Append's seconds.
  void AppendBurst(int count, std::vector<double>* append_s) {
    static constexpr const char* kPattern = "---++aaa";
    for (int i = 0; i < count; ++i) {
      stream::Mutation m;
      const char kind = kPattern[i % 8];
      if (kind == 'a') {
        m.op = stream::MutationOp::kSetAttr;
        m.u = static_cast<NodeId>(rng_.UniformInt(nodes_));
        m.col = rng_.UniformInt(attributes_);
        m.value = 1.0f;
      } else if (kind == '+' && !removed_.empty()) {
        const size_t k = static_cast<size_t>(
            rng_.UniformInt(static_cast<int64_t>(removed_.size())));
        std::swap(removed_[k], removed_.back());
        const Edge e = removed_.back();
        removed_.pop_back();
        edges_.push_back(e);
        m.op = stream::MutationOp::kAddEdge;
        m.u = e.u;
        m.v = e.v;
        m.value = e.w;
      } else {
        const size_t k = static_cast<size_t>(
            rng_.UniformInt(static_cast<int64_t>(edges_.size())));
        std::swap(edges_[k], edges_.back());
        const Edge e = edges_.back();
        edges_.pop_back();
        removed_.push_back(e);
        m.op = stream::MutationOp::kRemoveEdge;
        m.u = e.u;
        m.v = e.v;
      }
      append_s->push_back(Timed("stream.MutationLogWriter::Append", [&] {
        Must(run_, "stream.append", writer_->Append(m));
      }));
      ++appended_;
    }
  }

  // StreamPipeline::Step; adds its seconds to `step_s` when non-null.
  StepRecord Step(std::vector<double>* step_s) {
    StepRecord r;
    r.before_seq = pipeline_->log_seq();
    r.chain_before = pipeline_->chain_fingerprint();
    const double t = Timed("stream.StreamPipeline::Step", [&] {
      r.result = Must(run_, "stream.step", pipeline_->Step());
    });
    if (step_s != nullptr) step_s->push_back(t);
    r.after_seq = r.result.log_seq;
    r.embeddings = r.result.embeddings_path;
    Check(run_, "check.step_published", r.result.published,
          "step at log position " + std::to_string(r.before_seq) +
              " published nothing");
    return r;
  }

  const stream::PipelineOptions& options() const { return options_; }
  stream::StreamPipeline* pipeline() { return pipeline_.get(); }
  const std::string& initial_embeddings() const { return initial_embeddings_; }
  int64_t appended() const { return appended_; }

 private:
  struct Edge {
    NodeId u, v;
    float w;
  };
  RunState* run_;
  Rng rng_;
  int64_t attributes_;
  int64_t nodes_;
  stream::PipelineOptions options_;
  std::unique_ptr<stream::MutationLogWriter> writer_;
  std::unique_ptr<stream::StreamPipeline> pipeline_;
  std::vector<Edge> edges_, removed_;
  std::string initial_embeddings_;
  int64_t appended_ = 0;
};

constexpr int kBurst = 8;

void RecordStreamSteps(RunState* run,
                       const std::vector<ChurnFeed::StepRecord>& steps,
                       size_t counted, const std::vector<double>& append_s,
                       const std::vector<double>& step_s) {
  int64_t rewalked = 0, reimputed = 0;
  for (size_t i = 0; i < std::min(counted, steps.size()); ++i) {
    rewalked += steps[i].result.walk_stats.rewalked;
    reimputed += steps[i].result.reimpute_stats.recomputed_rows;
  }
  run->Layer("stream.append_ms", Ms(Median(append_s)), "ms");
  run->Layer("stream.step_s", Median(step_s), "s");
  run->Layer("stream.walks_rewalked", static_cast<double>(rewalked), "count");
  run->Layer("stream.reimpute_rows", static_cast<double>(reimputed), "count");
}

// Replays one captured burst through the sub-stages of an incremental
// Step, from the state the pipeline committed before it.
void ReplayBurst(RunState* run, ChurnFeed* feed,
                 const ChurnFeed::StepRecord& rec, double step_s) {
  const stream::PipelineOptions& po = feed->options();
  const Graph base = Must(run, "graph.load",
                          coane::LoadAttributedGraph(po.init_edges,
                                                     po.init_attrs,
                                                     po.init_labels));
  const auto log = Must(run, "stream.log_read",
                        stream::ReadMutationLog(po.log_path));
  std::vector<stream::Mutation> prefix, burst;
  for (const stream::Mutation& m : log.mutations) {
    if (m.seq <= rec.before_seq) prefix.push_back(m);
    else if (m.seq <= rec.after_seq) burst.push_back(m);
  }
  const Graph old_graph =
      prefix.empty()
          ? base
          : Must(run, "stream.apply",
                 stream::ApplyMutations(base, prefix, 1,
                                        stream::GraphFingerprint(base),
                                        nullptr));
  const std::string gen =
      po.work_dir + "/gen_" + std::to_string(rec.before_seq);

  stream::ApplyDelta delta;
  Graph new_graph;
  const double apply = Timed("stream.ApplyMutations", [&] {
    new_graph = Must(run, "stream.apply",
                     stream::ApplyMutations(old_graph, burst,
                                            rec.before_seq + 1,
                                            rec.chain_before, &delta));
  });
  std::vector<uint8_t> changed(static_cast<size_t>(new_graph.num_nodes()), 0);
  for (NodeId v : delta.structure_changed) changed[static_cast<size_t>(v)] = 1;
  stream::WalkCorpus corpus =
      Must(run, "stream.walks_load", stream::LoadWalkCorpus(gen + ".walks"));
  const double walk_update = Timed("stream.UpdateWalkCorpus", [&] {
    Must(run, "stream.walk_update",
         stream::UpdateWalkCorpus(new_graph, changed, &corpus));
  });
  const coane::SparseMatrix old_features =
      Must(run, "stream.impute",
           coane::ImputeMissingAttributes(old_graph, po.config.missing_attrs));
  coane::SparseMatrix features;
  const double reimpute = Timed("stream.IncrementalReimpute", [&] {
    features = Must(run, "stream.reimpute",
                    stream::IncrementalReimpute(
                        old_graph, old_features, new_graph,
                        po.config.missing_attrs, delta.structure_changed,
                        delta.attrs_changed));
  });
  CoaneConfig refine = po.config;
  refine.max_epochs = po.refine_epochs;
  CoaneModel model(new_graph, refine);
  model.SetPrecomputedWalks(corpus.walks);
  model.SetPrecomputedFeatures(features);
  const double preprocess = Timed("core.CoaneModel::Preprocess", [&] {
    Must(run, "core.preprocess", model.Preprocess());
  });
  const auto ckpt = Must(run, "core.checkpoint_read",
                         coane::ReadCheckpointFile(gen + ".ckpt"));
  const double refine_s = Timed("stream.refine", [&] {
    Must(run, "core.warm_start", model.WarmStartFrom(ckpt));
    for (int e = 0; e < po.refine_epochs; ++e) {
      Timed("core.CoaneModel::TrainEpoch",
            [&] { Must(run, "core.epoch", model.TrainEpoch()); });
    }
  });
  const std::string out = run->opt.work_dir + "/replay";
  const double save = Timed("stream.save", [&] {
    Must(run, "publish.save", coane::SaveEmbeddings(model.embeddings(),
                                                    out + ".emb"));
    Must(run, "core.checkpoint_save", model.SaveCheckpoint(out + ".ckpt"));
  });
  run->Layer("stream.apply_ms", Ms(apply), "ms");
  run->Layer("stream.walk_update_ms", Ms(walk_update), "ms");
  run->Layer("stream.reimpute_ms", Ms(reimpute), "ms");
  run->Layer("stream.preprocess_ms", Ms(preprocess), "ms");
  run->Layer("stream.refine_ms", Ms(refine_s), "ms");
  run->Layer("stream.save_ms", Ms(save), "ms");
  run->Layer("stream.phase_coverage",
             (apply + walk_update + reimpute + preprocess + refine_s + save) /
                 step_s,
             "ratio");
}

// Traced runs of the non-stream workloads measure the stream layer on their
// own graph: a short pipeline (one-epoch initial build, three bursts).
void StreamProbe(RunState* run, const Inputs& in, CoaneConfig config) {
  config.max_epochs = 1;
  ChurnFeed feed(run, in.split.train_graph, in.files, config,
                      run->opt.work_dir + "/stream_probe",
                      run->opt.seed * 3 + 7);
  feed.OpenAndBuild();
  std::vector<ChurnFeed::StepRecord> steps;
  std::vector<double> append_s, step_s;
  for (int b = 0; b < 3; ++b) {
    feed.AppendBurst(kBurst, &append_s);
    steps.push_back(feed.Step(&step_s));
  }
  RecordStreamSteps(run, steps, steps.size(), append_s, step_s);
  ReplayBurst(run, &feed, steps.back(), Median(step_s));
}

// --- Workloads -----------------------------------------------------------

// The layer probes every traced run makes on its own model and graph.
void TraceCommon(RunState* run, const CoaneModel& model, const Graph& graph,
                 double epoch_s) {
  ReplayTrainingPhases(run, model, epoch_s);
  WalkProbes(run, graph, model.config());
  GemmProbe(run, graph.num_attributes());
  CheckpointProbe(run, model);
}

// Flickr-calibrated substrate, scale 0.3, default CoaneConfig at 4 threads:
// the decoder GEMM and encoder gradient dominate.
void TrainFlickr(RunState* run) {
  constexpr int kThreads = 4;
  constexpr int kScoredEpoch = 5;
  coane::SetGlobalParallelism(kThreads);
  const Inputs in = MakeInputs(run, "flickr", 0.3);
  const CoaneConfig cfg;

  std::unique_ptr<Graph> graph;
  std::unique_ptr<CoaneModel> model;
  std::vector<double> setup, load, preprocess;
  for (int rep = 0; rep < 5; ++rep) {
    model.reset();
    graph.reset();
    const double begin = NowSeconds();
    double load_s = 0.0;
    graph = std::make_unique<Graph>(LoadGraph(run, in.files, &load_s));
    model = std::make_unique<CoaneModel>(*graph, cfg);
    preprocess.push_back(Timed("core.CoaneModel::Preprocess", [&] {
      Must(run, "core.preprocess", model->Preprocess());
    }));
    setup.push_back(NowSeconds() - begin);
    load.push_back(load_s);
  }
  run->E2e("setup_s", Median(setup), "s");
  run->Layer("graph.load_s", Median(load), "s");
  run->Layer("core.preprocess_s", Median(preprocess), "s");

  ArtifactWriter artifacts(run->opt.work_dir + "/artifacts");
  ServeStack stack;
  std::vector<double> start_s(1);
  StartStack(run, artifacts.Write(run, model->embeddings()),
             artifacts.manifest(), &stack, &start_s[0]);
  Conn a, b;
  Connect(run, &a, stack.frontend->port());
  Connect(run, &b, stack.frontend->port());

  // Each epoch's embeddings are written with their manifest entry, then
  // published; publish_p50_ms runs from the artifact being on disk until
  // INFO shows the new generation.
  std::vector<EpochSample> epochs;
  std::vector<double> publish, publish_call;
  DenseMatrix scored;
  uint64_t seq = 1;
  const double train_begin = NowSeconds();
  while (static_cast<int>(epochs.size()) < kScoredEpoch ||
         NowSeconds() - train_begin < run->opt.seconds) {
    epochs.push_back(TimedEpoch(run, model.get()));
    const std::string path = artifacts.Write(run, model->embeddings());
    publish.push_back(PublishVisible(run, &stack, &a, path, "seq", ++seq,
                                     NowSeconds(), &publish_call));
    if (static_cast<int>(epochs.size()) == kScoredEpoch) {
      scored = model->embeddings();
    }
  }
  std::vector<double> wall;
  for (const EpochSample& e : epochs) wall.push_back(e.wall);
  run->E2e("train_nodes_per_s",
           static_cast<double>(graph->num_nodes()) / Median(wall), "nodes/s");
  run->E2e("publish_p50_ms", Ms(Median(publish)), "ms");
  run->Note("epochs", std::to_string(epochs.size()));

  ServeLeg(run, &stack, &a, &b, graph->num_nodes(), 2000.0, 4.0, 2.0);
  a.Close();
  b.Close();
  ScoreQuality(run, scored, in);

  if (run->opt.trace) {
    RecordEpochs(run, epochs, kThreads);
    ServeProbes(run, &stack, graph->num_nodes(), start_s, publish_call);
    TraceCommon(run, *model, *graph, Median(wall));
    StreamProbe(run, in, cfg);
  }
  const int64_t refused = RecordOverload(run, stack);
  run->Layer("serve.failed", static_cast<double>(refused), "count");
}

// A 7563 x 128 embedding store (pubmed-calibrated substrate at paper-Flickr
// node count) trained for three epochs, then served under an open loop and
// a closed loop: frontend, query engine and index scan do the work.
void ServeKnn(RunState* run) {
  constexpr int kThreads = 4;
  constexpr int kEpochs = 3;
  constexpr int kRepublishes = 7;
  coane::SetGlobalParallelism(kThreads);
  const Inputs in = MakeInputs(run, "pubmed", 0.3836);
  const CoaneConfig cfg;
  double load_s = 0.0;
  const Graph graph = LoadGraph(run, in.files, &load_s);
  CoaneModel model(graph, cfg);
  const double preprocess_s = Timed("core.CoaneModel::Preprocess", [&] {
    Must(run, "core.preprocess", model.Preprocess());
  });

  ArtifactWriter artifacts(run->opt.work_dir + "/artifacts");
  const std::string initial = artifacts.Write(run, model.embeddings());
  ServeStack stack;
  std::vector<double> setup, start_s;
  for (int rep = 0; rep < 5; ++rep) {
    double s = 0.0;
    setup.push_back(StartStack(run, initial, artifacts.manifest(), &stack, &s));
    start_s.push_back(s);
  }
  run->E2e("setup_s", Median(setup), "s");
  Conn a, b;
  Connect(run, &a, stack.frontend->port());
  Connect(run, &b, stack.frontend->port());

  std::vector<EpochSample> epochs;
  std::vector<double> publish, publish_call;
  uint64_t seq = 1;
  for (int e = 0; e < kEpochs + kRepublishes; ++e) {
    if (e < kEpochs) epochs.push_back(TimedEpoch(run, &model));
    const std::string path = artifacts.Write(run, model.embeddings());
    publish.push_back(PublishVisible(run, &stack, &a, path, "seq", ++seq,
                                     NowSeconds(), &publish_call));
  }
  std::vector<double> wall;
  for (const EpochSample& e : epochs) wall.push_back(e.wall);
  run->E2e("train_nodes_per_s",
           static_cast<double>(graph.num_nodes()) / Median(wall), "nodes/s");
  run->E2e("publish_p50_ms", Ms(Median(publish)), "ms");

  ServeLeg(run, &stack, &a, &b, graph.num_nodes(), 2000.0,
           run->opt.seconds * 2.0 / 3.0, run->opt.seconds / 3.0);
  a.Close();
  b.Close();
  ScoreQuality(run, model.embeddings(), in);

  if (run->opt.trace) {
    run->Layer("graph.load_s", load_s, "s");
    run->Layer("core.preprocess_s", preprocess_s, "s");
    RecordEpochs(run, epochs, kThreads);
    ServeProbes(run, &stack, graph.num_nodes(), start_s, publish_call);
    TraceCommon(run, model, graph, Median(wall));
    StreamProbe(run, in, cfg);
  }
  const int64_t refused = RecordOverload(run, stack);
  run->Layer("serve.failed", static_cast<double>(refused), "count");
}

// Pubmed-calibrated substrate at scale 0.1 under a mutation stream: bursts
// of 8 appended, folded by StreamPipeline (coane_streamd defaults, 2
// threads) and hot-swapped into a server that a low-rate open loop reads.
void StreamChurn(RunState* run) {
  constexpr int kThreads = 2;
  constexpr int kScoredBursts = 3;
  coane::SetGlobalParallelism(kThreads);
  const Inputs in = MakeInputs(run, "pubmed", 0.1);
  const CoaneConfig cfg;  // the initial build trains max_epochs = 5

  std::unique_ptr<ChurnFeed> feed;
  ServeStack stack;
  std::vector<double> setup, start_s;
  for (int rep = 0; rep < 3; ++rep) {
    stack.Reset();
    feed.reset();
    const std::string dir =
        run->opt.work_dir + "/stream_" + std::to_string(rep);
    feed = std::make_unique<ChurnFeed>(run, in.split.train_graph,
                                            in.files, cfg, dir,
                                            run->opt.seed * 3 + 7);
    const double begin = NowSeconds();
    feed->OpenAndBuild();
    double s = 0.0;
    StartStack(run, feed->initial_embeddings(),
               feed->pipeline()->manifest_path(), &stack, &s);
    setup.push_back(NowSeconds() - begin);
    start_s.push_back(s);
  }
  run->E2e("setup_s", Median(setup), "s");

  Conn reader, observer;
  Connect(run, &reader, stack.frontend->port());
  Connect(run, &observer, stack.frontend->port());
  std::atomic<bool> stop{false};
  LoadReport open;
  constexpr double kReadRate = 1000.0;
  std::thread reads([&] {
    RequestMix mix = OpenMix(run, in.nodes);
    Span span("serve.open_loop");
    open = RunOpenLoop({&reader}, &mix, kReadRate, 1e300, &stop, 0);
  });

  std::vector<ChurnFeed::StepRecord> steps;
  std::vector<double> append_s, step_s, publish, publish_call;
  std::string scored;
  const double begin = NowSeconds();
  try {
    while (static_cast<int>(steps.size()) < kScoredBursts ||
           NowSeconds() - begin < run->opt.seconds) {
      feed->AppendBurst(kBurst, &append_s);
      const double appended = NowSeconds();
      steps.push_back(feed->Step(&step_s));
      Check(run, "check.burst_folded", steps.back().result.applied == kBurst,
            "step folded " + std::to_string(steps.back().result.applied) +
                " of " + std::to_string(kBurst) + " mutations");
      publish.push_back(PublishVisible(run, &stack, &observer,
                                       steps.back().embeddings, "log_pos",
                                       steps.back().after_seq, appended,
                                       &publish_call));
      if (static_cast<int>(steps.size()) == kScoredBursts) {
        scored = steps.back().embeddings;
      }
    }
  } catch (...) {
    stop = true;
    reads.join();
    throw;
  }
  stop = true;
  reads.join();
  RecordOpenLoop(run, open, kReadRate);

  // Final visibility check: the served log position is every append.
  std::string info;
  observer.Send("INFO");
  observer.ReadLine(&info);
  const std::string want =
      " log_pos=" + std::to_string(feed->appended()) + " ";
  Check(run, "check.final_log_pos", info.find(want) != std::string::npos,
        "INFO '" + info + "' does not show log_pos=" +
            std::to_string(feed->appended()));

  ClosedLoops(run, stack.server.get(), &reader, &observer, in.nodes, 2.0);
  reader.Close();
  observer.Close();

  run->E2e("train_nodes_per_s",
           static_cast<double>(in.nodes) * feed->options().refine_epochs /
               Median(step_s),
           "nodes/s");
  run->E2e("publish_p50_ms", Ms(Median(publish)), "ms");
  run->Note("bursts", std::to_string(steps.size()));
  ScoreQuality(run,
               Must(run, "graph.load_embeddings",
                    coane::LoadEmbeddings(scored)),
               in);

  if (run->opt.trace) {
    RecordStreamSteps(run, steps, kScoredBursts, append_s, step_s);
    ReplayBurst(run, feed.get(), steps[kScoredBursts - 1], Median(step_s));
    ServeProbes(run, &stack, in.nodes, start_s, publish_call);
    // Core and nn on the final graph, through a model trained like the
    // pipeline's refinement.
    double load_s = 0.0;
    const Graph graph = LoadGraph(run, in.files, &load_s);
    run->Layer("graph.load_s", load_s, "s");
    CoaneModel model(graph, cfg);
    run->Layer("core.preprocess_s", Timed("core.CoaneModel::Preprocess", [&] {
      Must(run, "core.preprocess", model.Preprocess());
    }), "s");
    std::vector<EpochSample> epochs;
    for (int e = 0; e < 3; ++e) epochs.push_back(TimedEpoch(run, &model));
    RecordEpochs(run, epochs, kThreads);
    TraceCommon(run, model, graph, run->layer.at("core.epoch_s").value);
  }
  const int64_t refused = RecordOverload(run, stack);
  run->Layer("serve.failed", static_cast<double>(refused), "count");
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"train-flickr", "serve-knn",
                                                  "stream-churn"};
  return kNames;
}

bool RunWorkload(RunState* run, std::string* error) {
  try {
    if (run->opt.workload == "train-flickr") {
      TrainFlickr(run);
    } else if (run->opt.workload == "serve-knn") {
      ServeKnn(run);
    } else if (run->opt.workload == "stream-churn") {
      StreamChurn(run);
    } else {
      *error = "unknown workload " + run->opt.workload;
      return false;
    }
  } catch (const Fatal& f) {
    *error = f.what;
    return false;
  }
  // serve.failed also counts non-OK and lost wire replies.
  int64_t wire_failed = 0;
  for (const auto& [op, c] : run->ledger.Snapshot()) {
    if (op.rfind("open.", 0) == 0 || op.rfind("closed.", 0) == 0) {
      wire_failed += c.failed;
    }
  }
  run->layer["serve.failed"].value += static_cast<double>(wire_failed);
  run->E2e("peak_rss_mb", PeakRssMb(), "MB");
  return true;
}

}  // namespace perfbench
