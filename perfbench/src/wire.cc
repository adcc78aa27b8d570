#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <deque>

namespace perfbench {

Conn::~Conn() { Close(); }

bool Conn::Connect(int port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Close();
    return false;
  }
  return true;
}

void Conn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buf_.clear();
}

bool Conn::Send(const std::string& line) {
  const std::string data = line + "\n";
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

bool Conn::ExtractLine(std::string* line) {
  const size_t nl = buf_.find('\n');
  if (nl == std::string::npos) return false;
  line->assign(buf_, 0, nl);
  buf_.erase(0, nl + 1);
  return true;
}

bool Conn::ReadLine(std::string* line) {
  char chunk[4096];
  while (!ExtractLine(line)) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
  return true;
}

bool Conn::Drain(std::vector<std::string>* lines) {
  char chunk[16384];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<size_t>(n));
  }
  std::string line;
  while (ExtractLine(&line)) lines->push_back(line);
  return true;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kKnn: return "knn";
    case Op::kScore: return "score";
    case Op::kGet: return "get";
  }
  return "?";
}

RequestMix::RequestMix(uint64_t seed, int64_t rows, double knn_share,
                       double score_share)
    : rng_(seed), rows_(rows), knn_share_(knn_share),
      score_share_(score_share) {}

Request RequestMix::Next() {
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_int_distribution<int64_t> row(0, rows_ - 1);
  const double c = coin(rng_);
  Request r;
  if (c < knn_share_) {
    r.op = Op::kKnn;
    r.line = "KNN 10 " + std::to_string(row(rng_));
  } else if (c < knn_share_ + score_share_) {
    r.op = Op::kScore;
    const int64_t u = row(rng_);
    r.line = "SCORE " + std::to_string(u) + " " + std::to_string(row(rng_));
  } else {
    r.op = Op::kGet;
    r.line = "GET " + std::to_string(row(rng_));
  }
  return r;
}

namespace {

struct Outstanding {
  Request request;
  double due = 0.0;  // open loop: schedule; closed loop: send time
  int64_t index = 0;
};

void Complete(LoadReport* report, const Outstanding& o,
              const std::string& reply, double now, int64_t sample_every,
              bool open_loop) {
  const int op = static_cast<int>(o.request.op);
  if (reply.compare(0, 2, "OK") == 0) {
    ++report->ok[op];
    report->latency[op].push_back(now - o.due);
    report->at[op].push_back(open_loop ? o.due : now);
  } else {
    ++report->not_ok[op];
  }
  if (sample_every > 0 && o.index % sample_every == 0) {
    report->samples.emplace_back(o.request.line, reply);
  }
}

// Busy-polls `conns` for replies until `deadline`, completing the head of each
// connection's queue per reply line. Returns false when a connection
// failed (its outstanding requests are counted lost).
bool PollReplies(const std::vector<Conn*>& conns,
                 std::vector<std::deque<Outstanding>>* queues,
                 double deadline, bool open_loop, LoadReport* report,
                 int64_t sample_every, std::vector<int>* completed_on) {
  std::vector<pollfd> fds;
  for (Conn* c : conns) fds.push_back({c->fd(), POLLIN, 0});
  int ready = 0;
  do {  // busy-poll until a reply or the deadline
    ready = ::poll(fds.data(), fds.size(), 0);
  } while (ready == 0 && NowSeconds() < deadline);
  if (ready <= 0) return ready == 0 || errno == EINTR;
  bool healthy = true;
  for (size_t i = 0; i < conns.size(); ++i) {
    if (fds[i].revents == 0) continue;
    std::vector<std::string> lines;
    const bool alive = conns[i]->Drain(&lines);
    const double now = NowSeconds();
    auto& q = (*queues)[i];
    for (const std::string& line : lines) {
      if (q.empty()) break;  // unsolicited line: ignore
      Complete(report, q.front(), line, now, sample_every, open_loop);
      q.pop_front();
      if (completed_on != nullptr) completed_on->push_back(static_cast<int>(i));
    }
    if (!alive) {
      report->lost += static_cast<int64_t>(q.size());
      q.clear();
      healthy = false;
    }
  }
  return healthy;
}

bool AnyOutstanding(const std::vector<std::deque<Outstanding>>& queues) {
  for (const auto& q : queues) {
    if (!q.empty()) return true;
  }
  return false;
}

}  // namespace

LoadReport RunOpenLoop(const std::vector<Conn*>& conns, RequestMix* mix,
                       double rate, double until,
                       const std::atomic<bool>* stop, int64_t sample_every) {
  LoadReport report;
  std::vector<std::deque<Outstanding>> queues(conns.size());
  const double start = NowSeconds();
  const OpenLoopSchedule schedule{start, rate};
  int64_t i = 0;
  bool healthy = true;
  double drain_start = 0.0;
  Request next = mix->Next();
  while (healthy) {
    const double due = schedule.Due(i);
    const bool more =
        due < until &&
        (stop == nullptr || !stop->load(std::memory_order_relaxed));
    if (!more && !AnyOutstanding(queues)) break;
    if (!more && drain_start == 0.0) drain_start = NowSeconds();
    if (more && NowSeconds() >= due) {
      const size_t c = static_cast<size_t>(i) % conns.size();
      if (!conns[c]->Send(next.line)) {
        ++report.lost;
        healthy = false;
        break;
      }
      report.lateness.push_back(schedule.Lateness(i, NowSeconds()));
      queues[c].push_back({next, due, i});
      ++report.sent;
      ++i;
      next = mix->Next();
      continue;
    }
    // Wait for replies until the next send is due (or a drain slice).
    const double deadline = more ? due : NowSeconds() + 0.05;
    healthy = PollReplies(conns, &queues, deadline, /*open_loop=*/true,
                          &report, sample_every, nullptr);
    if (!more && NowSeconds() > drain_start + 10.0) break;  // stuck server
  }
  for (const auto& q : queues) report.lost += static_cast<int64_t>(q.size());
  report.seconds = NowSeconds() - start;
  return report;
}

LoadReport RunClosedLoop(const std::vector<Conn*>& conns, RequestMix* mix,
                         double until, int64_t sample_every) {
  LoadReport report;
  std::vector<std::deque<Outstanding>> queues(conns.size());
  const double start = NowSeconds();
  int64_t i = 0;
  auto send = [&](size_t c) {
    Request r = mix->Next();
    const double now = NowSeconds();
    if (!conns[c]->Send(r.line)) {
      ++report.lost;
      return false;
    }
    queues[c].push_back({r, now, i++});
    ++report.sent;
    return true;
  };
  bool healthy = true;
  for (size_t c = 0; c < conns.size() && healthy; ++c) healthy = send(c);
  while (healthy && AnyOutstanding(queues)) {
    std::vector<int> completed;
    healthy = PollReplies(conns, &queues, NowSeconds() + 1.0,
                          /*open_loop=*/false, &report, sample_every,
                          &completed);
    if (NowSeconds() > until + 10.0) break;  // stuck server
    if (NowSeconds() >= until) continue;     // drain, send nothing new
    for (int c : completed) {
      if (!healthy || !send(static_cast<size_t>(c))) healthy = false;
    }
  }
  for (const auto& q : queues) report.lost += static_cast<int64_t>(q.size());
  report.seconds = NowSeconds() - start;
  return report;
}

std::string OneShot(int port, const std::string& line, double* seconds) {
  const double start = NowSeconds();
  Conn conn;
  std::string reply;
  if (!conn.Connect(port) || !conn.Send(line) || !conn.ReadLine(&reply)) {
    reply.clear();
  }
  conn.Close();
  *seconds = NowSeconds() - start;
  return reply;
}

}  // namespace perfbench
