#ifndef COANE_PERFBENCH_WORKLOADS_H_
#define COANE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory of this run (created and removed by the caller).
  std::string work_dir;
};

/// Everything one run produces besides its console output.
class RunState {
 public:
  explicit RunState(RunOptions options) : opt(std::move(options)) {}

  void E2e(const std::string& name, double value, const std::string& unit) {
    if (Valid(name, unit)) e2e[name] = {value, unit};
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    if (Valid(name, unit)) layer[name] = {value, unit};
  }
  void Note(const std::string& key, const std::string& value) {
    notes[key] = value;
  }

  const RunOptions opt;
  Ledger ledger;
  std::map<std::string, MetricValue> e2e;
  std::map<std::string, MetricValue> layer;
  std::map<std::string, std::string> notes;

 private:
  // A metric the result line could not carry is a failed check.
  bool Valid(const std::string& name, const std::string& unit) {
    const bool ok = ValidMetricName(name) && ValidUnit(unit);
    if (ok) {
      ledger.Record("check.metric_name", true);
    } else {
      ledger.Fail("check.metric_name",
                  "metric '" + name + "' or unit '" + unit + "' is invalid");
    }
    return ok;
  }
};

const std::vector<std::string>& WorkloadNames();

/// Runs `run->opt.workload`. Returns false (with `error` set) when the run
/// could not finish; check failures that let it finish land in the ledger.
bool RunWorkload(RunState* run, std::string* error);

}  // namespace perfbench

#endif  // COANE_PERFBENCH_WORKLOADS_H_
