// Small helpers of the benchmark binary: percentiles, the result record,
// the victims' "key value" output files and child-process control.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
double Pct(std::vector<std::int64_t> v, double q);
double MedianOf(std::vector<double> v);

// One workload run's output: metrics (value + unit), the sample count behind
// each percentile, op accounting, correctness failures and provenance.
struct Result {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::int64_t> samples;
  std::map<std::string, std::string> info;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fail(const std::string& why, std::uint64_t ops = 1) {
    errors.push_back(why);
    failed += ops;
  }
  std::string Json() const;
};

// Parsed "key value..." lines. Scalars are the first value; lists ("lat 3 a
// b c") keep every value after the count.
struct KvFile {
  std::map<std::string, std::vector<std::string>> lines;
  std::multimap<std::string, std::vector<std::string>> all;  // repeated keys

  bool Has(const std::string& k) const { return lines.count(k) > 0; }
  double Num(const std::string& k) const;
  std::vector<std::int64_t> List(const std::string& k) const;
};
KvFile ReadKv(const std::string& path);

// fork + execve with `extra_env` appended to the environment. Returns the
// child pid (or -1).
int Spawn(const std::vector<std::string>& argv, const std::vector<std::string>& extra_env);
// Waits for `pid` with polling; kills it with SIGKILL after `timeout_ns`.
// Returns true when it exited with status 0 on its own.
bool WaitOrKill(int pid, std::int64_t timeout_ns);
// Non-blocking reap: true (and *ok = clean exit) once the child has ended.
bool Reaped(int pid, bool* ok);
void KillAndReap(int pid);

std::string Str(double v);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
