#ifndef COANE_PERFBENCH_WIRE_H_
#define COANE_PERFBENCH_WIRE_H_

// Loopback client of the serve line protocol: persistent connections, an
// open-loop generator and a closed-loop client, each run by one thread.

#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

/// One persistent loopback connection (TCP_NODELAY on the client side).
/// The loops below busy-poll their connections, so the client's own
/// wake-up latency stays out of the measurement.
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  bool Connect(int port);
  void Close();
  int fd() const { return fd_; }
  bool Send(const std::string& line);  // appends '\n'
  /// Blocks for one reply line (without '\n'); false on EOF or error.
  bool ReadLine(std::string* line);
  /// Reads what is available without blocking; appends complete lines.
  /// False on EOF or error.
  bool Drain(std::vector<std::string>* lines);

 private:
  bool ExtractLine(std::string* line);
  int fd_ = -1;
  std::string buf_;
};

/// Request kinds of the seeded mix.
enum class Op { kKnn, kScore, kGet };
const char* OpName(Op op);

struct Request {
  Op op = Op::kKnn;
  std::string line;
};

/// Seeded request mix over row ids [0, rows): `knn_share` KNN 10, then
/// `score_share` SCORE, the rest GET.
class RequestMix {
 public:
  RequestMix(uint64_t seed, int64_t rows, double knn_share,
             double score_share);
  Request Next();

 private:
  std::mt19937_64 rng_;
  int64_t rows_;
  double knn_share_;
  double score_share_;
};

/// What one load phase observed.
struct LoadReport {
  /// Latencies in seconds per op kind (open loop: from the due time),
  /// and when each was sampled (open loop: the due time; closed loop: the
  /// completion time), for per-window statistics.
  std::vector<double> latency[3];
  std::vector<double> at[3];
  /// Open loop only: how late each send left.
  std::vector<double> lateness;
  int64_t sent = 0;
  int64_t ok[3] = {0, 0, 0};      // per op kind
  int64_t not_ok[3] = {0, 0, 0};  // replies not starting with "OK"
  int64_t lost = 0;  // requests without a reply (connection failure)
  double seconds = 0.0; // wall time of the phase
  /// Seeded sample of (request, wire reply) pairs for byte comparison.
  std::vector<std::pair<std::string, std::string>> samples;
};

/// Open loop at a fixed `rate` over `conns`, request i on conn i % size.
/// Runs until `until` (NowSeconds) or `stop` turns true, then waits for
/// the outstanding replies. Samples every `sample_every`-th reply when
/// `sample_every` > 0.
LoadReport RunOpenLoop(const std::vector<Conn*>& conns, RequestMix* mix,
                       double rate, double until,
                       const std::atomic<bool>* stop, int64_t sample_every);

/// Closed loop: each conn keeps one request outstanding until `until`.
LoadReport RunClosedLoop(const std::vector<Conn*>& conns, RequestMix* mix,
                         double until, int64_t sample_every);

/// Connect, send `line`, read one reply, close; returns the reply
/// ("" on failure) and the elapsed seconds.
std::string OneShot(int port, const std::string& line, double* seconds);

}  // namespace perfbench

#endif  // COANE_PERFBENCH_WIRE_H_
