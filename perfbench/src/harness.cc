#include "harness.h"

#include <algorithm>
#include <chrono>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Samples -------------------------------------------------------------

namespace {

// 1-based nearest rank of the p-th percentile of n samples.
int64_t NearestRank(int64_t n, double p) {
  if (n <= 0) return 0;
  const double exact = p * static_cast<double>(n) / 100.0;
  int64_t rank = static_cast<int64_t>(std::ceil(exact - 1e-9));
  return std::clamp<int64_t>(rank, 1, n);
}

}  // namespace

int64_t SamplesBeyond(int64_t n, double p) {
  return n <= 0 ? 0 : n - NearestRank(n, p);
}

double HighestSupportedPercentile(int64_t n, int64_t min_beyond) {
  double best = 0.0;
  for (double p : PercentileLadder()) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const int64_t rank =
      NearestRank(static_cast<int64_t>(values.size()), p);
  return values[static_cast<size_t>(rank - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double WindowedPercentile(const std::vector<double>& at,
                          const std::vector<double>& values, double window,
                          double p, int64_t* windows) {
  std::map<int64_t, std::vector<double>> by_window;
  if (!at.empty()) {
    const double first = *std::min_element(at.begin(), at.end());
    for (size_t i = 0; i < at.size() && i < values.size(); ++i) {
      by_window[static_cast<int64_t>((at[i] - first) / window)].push_back(
          values[i]);
    }
  }
  std::vector<double> per_window;
  for (auto& [w, v] : by_window) {
    if (SamplesBeyond(static_cast<int64_t>(v.size()), p) >= 10) {
      per_window.push_back(Percentile(std::move(v), p));
    }
  }
  if (windows != nullptr) *windows = static_cast<int64_t>(per_window.size());
  return Median(per_window);
}

double WindowedRate(std::vector<double> at, double window) {
  if (at.empty()) return std::nan("");
  std::sort(at.begin(), at.end());
  const int64_t full =
      static_cast<int64_t>((at.back() - at.front()) / window);
  std::vector<std::vector<double>> by_window(static_cast<size_t>(full));
  for (double t : at) {
    const int64_t w = static_cast<int64_t>((t - at.front()) / window);
    if (w < full) by_window[static_cast<size_t>(w)].push_back(t);
  }
  std::vector<double> rates;
  for (const auto& events : by_window) {
    if (events.size() >= 2 && events.back() > events.front()) {
      rates.push_back(static_cast<double>(events.size() - 1) /
                      (events.back() - events.front()));
    }
  }
  return Median(rates);
}

// --- Names -------------------------------------------------------------------

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

bool ValidUnit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (char c : unit) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '/' && c != '%' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

// --- Ledger ------------------------------------------------------------------

void Ledger::Record(const std::string& op, bool ok, int64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  OpCounts& c = ops_[op];
  c.attempted += count;
  (ok ? c.succeeded : c.failed) += count;
}

void Ledger::Fail(const std::string& op, const std::string& reason,
                  int64_t count) {
  Record(op, false, count);
  std::lock_guard<std::mutex> lock(mu_);
  if (reasons_.size() < 32) reasons_.push_back(op + ": " + reason);
}

std::map<std::string, OpCounts> Ledger::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ops_;
}

std::vector<std::string> Ledger::Reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

int64_t Ledger::TotalAttempted() const {
  int64_t total = 0;
  for (const auto& [op, c] : Snapshot()) total += c.attempted;
  return total;
}

int64_t Ledger::TotalFailed() const {
  int64_t total = 0;
  for (const auto& [op, c] : Snapshot()) total += c.failed;
  return total;
}

// --- JSON --------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string RenderResult(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : result.metrics) {
    if (!first) out += ", ";
    first = false;
    out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  return out + "}}";
}

// --- Tracer ------------------------------------------------------------------

namespace {

thread_local std::vector<int64_t> t_span_stack;

int64_t ThreadNumber() {
  static std::atomic<int64_t> next{1};
  thread_local int64_t mine = next.fetch_add(1);
  return mine;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable(const std::string& run_id) {
  run_id_ = run_id;
  enabled_ = true;
}

int64_t Tracer::Begin(const char* name) {
  Event e;
  e.name = name;
  e.parent = t_span_stack.empty() ? 0 : t_span_stack.back();
  e.tid = ThreadNumber();
  e.start = NowSeconds();
  std::lock_guard<std::mutex> lock(mu_);
  e.id = next_id_++;
  t_span_stack.push_back(e.id);
  events_.push_back(std::move(e));
  return events_.back().id;
}

void Tracer::End(int64_t id) {
  const double now = NowSeconds();
  if (!t_span_stack.empty() && t_span_stack.back() == id) {
    t_span_stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Ids are dense and 1-based, so event id lives at index id - 1.
  events_[static_cast<size_t>(id - 1)].end = now;
}

std::vector<Tracer::Event> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::string Tracer::ChromeTraceJson() const {
  const std::vector<Event> events = Events();
  const double origin = events.empty() ? 0.0 : events.front().start;
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"run\": " +
                    JsonString(run_id_) + "}, \"traceEvents\": [\n";
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    out += "{\"name\": " + JsonString(e.name) +
           ", \"cat\": " + JsonString(e.name.substr(0, e.name.find('.'))) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": " + std::to_string(e.tid) +
           ", \"ts\": " + JsonNumber((e.start - origin) * 1e6) +
           ", \"dur\": " + JsonNumber((e.end - e.start) * 1e6) +
           ", \"args\": {\"id\": " + std::to_string(e.id) +
           ", \"parent\": " + std::to_string(e.parent) +
           ", \"run\": " + JsonString(run_id_) + "}}";
    out += i + 1 < events.size() ? ",\n" : "\n";
  }
  return out + "]}\n";
}

std::vector<double> SelfTimes(const std::vector<Tracer::Event>& events) {
  std::map<int64_t, size_t> index;
  for (size_t i = 0; i < events.size(); ++i) index[events[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(
      events.size());
  for (const Tracer::Event& e : events) {
    auto parent = index.find(e.parent);
    if (parent == index.end()) continue;
    const Tracer::Event& p = events[parent->second];
    const double lo = std::max(e.start, p.start);
    const double hi = std::min(e.end, p.end);
    if (hi > lo) children[parent->second].push_back({lo, hi});
  }
  std::vector<double> self(events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    auto& spans = children[i];
    std::sort(spans.begin(), spans.end());
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (const auto& [lo, hi] : spans) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (events[i].end - events[i].start) - covered);
  }
  return self;
}

std::string Tracer::SelfTimeTable() const {
  const std::vector<Event> events = Events();
  const std::vector<double> self = SelfTimes(events);
  struct Row {
    int64_t calls = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> layers, spans;
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    for (auto* table : {&layers, &spans}) {
      Row& row = (*table)[table == &layers ? e.name.substr(0, e.name.find('.'))
                                           : e.name];
      ++row.calls;
      row.total += e.end - e.start;
      row.self += self[i];
    }
  }
  std::ostringstream out;
  char buf[160];
  out << "# run " << run_id_ << "\n";
  for (const auto& [title, table] :
       {std::pair<const char*, const std::map<std::string, Row>*>{
            "layer", &layers},
        {"span", &spans}}) {
    std::snprintf(buf, sizeof(buf), "%-44s %10s %14s %14s\n", title,
                  "calls", "total_s", "self_s");
    out << buf;
    for (const auto& [name, row] : *table) {
      std::snprintf(buf, sizeof(buf), "%-44s %10lld %14.6f %14.6f\n",
                    name.c_str(), static_cast<long long>(row.calls),
                    row.total, row.self);
      out << buf;
    }
    out << "\n";
  }
  return out.str();
}

Span::Span(const char* name) {
  Tracer& t = Tracer::Global();
  if (t.enabled()) id_ = t.Begin(name);
}

Span::~Span() {
  if (id_ != 0) Tracer::Global().End(id_);
}

}  // namespace perfbench
