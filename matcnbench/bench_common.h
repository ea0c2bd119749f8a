#ifndef MATCNBENCH_BENCH_COMMON_H_
#define MATCNBENCH_BENCH_COMMON_H_

// Shared pieces of the benchmark binary: run arguments, exact
// percentiles over raw samples, the result report (metrics + operation
// counts + correctness), spans recorded around calls into the library,
// and the environment stamp.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <vector>

namespace matcnbench {

/// One invocation: `--workload W --seed N --seconds S --trace 0|1`, plus
/// `--smoke` (short phases, every check on) for the benchmark's own test.
/// `--measure-only` is how an untraced run makes its timed passes in a
/// fresh process of this binary, on the CPU named by `--cpu`.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool measure_only = false;
  int cpu = -1;
  std::vector<int> cpus;  // the CPUs this process may run on, at start
};

/// Hardware threads available to this process (client threads and
/// per-service worker pools are sized from it).
unsigned HardwareThreads();

/// Steady-clock nanoseconds, for op latencies and phase windows (whole
/// microseconds would quantize sub-millisecond medians).
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
inline int64_t NowMicros() { return NowNanos() / 1000; }

/// q-quantile (q in [0,1]) of raw samples by linear interpolation between
/// order statistics. Exact, unlike the service's bucketed histograms,
/// whose 6% buckets would make a median step between bucket edges.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);
double Median(std::vector<double> values);

/// Peak resident set size of this process in MiB (getrusage).
double PeakRssMib();

/// FNV-1a, used to fingerprint answers for the correctness checks.
uint64_t Fnv1a(const std::string& bytes, uint64_t seed = 1469598103934665603ull);

/// What a run prints: correctness, operation counts and metrics. The last
/// line of stdout is ToJson().
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// Records a failed correctness check; the run reports correct=false.
  void Fail(const std::string& what) {
    correct_ = false;
    if (failures_++ < 20) std::cerr << "CHECK FAILED: " << what << "\n";
  }
  /// Reports a check summary line (stdout, before the result line).
  void Note(const std::string& line) { std::cout << "# " << line << "\n"; }
  bool correct() const { return correct_; }
  bool Has(const std::string& name) const { return metrics_.contains(name); }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The result line, with exactly the metrics of `wanted` (name, unit);
  /// a wanted metric the workload did not set reads 0.
  std::string ToJson(
      const std::vector<std::pair<std::string, std::string>>& wanted) const;

 private:
  bool correct_ = true;
  uint64_t failures_ = 0;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Spans recorded by the benchmark around each call into a layer's
/// public function: name, start, end and the span that caused it. Kept in
/// memory; per-layer metrics are aggregated from them at the end.
class SpanLog {
 public:
  struct Span {
    const char* name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
    double value;  // work count attached to the span (tuples, matches...)
  };
  uint32_t Begin(const char* name, uint32_t parent = 0) {
    spans_.push_back({name, parent, NowNanos(), -1, 0});
    return static_cast<uint32_t>(spans_.size());
  }
  void End(uint32_t id, double value = 0) {
    spans_[id - 1].end_ns = NowNanos();
    spans_[id - 1].value = value;
  }
  /// Mean duration (ms) of the spans called `name`; 0 if none.
  double MeanMs(const std::string& name) const;
  /// Total duration (ms) and value of the spans called `name`.
  double TotalMs(const std::string& name) const;
  double TotalValue(const std::string& name) const;
  size_t Count(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

/// Runs `make` at least kSetupMinRepeats times, and more (up to
/// kSetupMaxRepeats) until kSetupMinSeconds have been spent, timing each
/// call, and returns the median seconds. A set-up of a few milliseconds
/// is thus a median of about a hundred samples, one of a second of seven.
inline constexpr size_t kSetupMinRepeats = 7;
inline constexpr size_t kSetupMaxRepeats = 101;
inline constexpr double kSetupMinSeconds = 0.5;
double MedianSetupSeconds(const std::function<void()>& make);

/// Runs the timed part of `args.workload` in the `index`-th fresh process
/// of this binary (`--measure-only`, with `seed`, `seconds` and
/// `args.smoke`), on the CPU `args.cpus[index % args.cpus.size()]`, waits
/// for it to end and returns what it printed on stdout. A shared host can
/// run one process, or one virtual CPU, slower than the next for a long
/// while, so timed work is spread over several such processes on
/// different CPUs, and each figure takes the fastest of them.
bool RunMeasuringChild(const Args& args, int index, uint64_t seed,
                       double seconds, std::string* out, std::string* error);

/// The CPUs this process may run on.
std::vector<int> AllowedCpus();

/// Restricts the calling thread, and every thread it starts afterwards,
/// to `cpu` (-1: the CPU it is running on).
void PinToCpu(int cpu);

/// Measuring processes per untraced run.
inline constexpr int kMeasuringProcesses = 5;

/// Peak resident set size in MiB of this process or of any measuring
/// process it waited for, whichever is larger.
double PeakRssWithChildrenMib();

/// Prints the environment stamp line (hardware threads, build type,
/// compiler, SIMD level, workload, seed, run length). The workloads add
/// their own lines on samples behind each figure.
void PrintEnvironment(const Args& args);

}  // namespace matcnbench

#endif  // MATCNBENCH_BENCH_COMMON_H_
