#include "bench_common.h"

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <thread>

#include "simd/dispatch.h"

namespace matcnbench {

unsigned HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double PeakRssMib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t Fnv1a(const std::string& bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string Report::ToJson(
    const std::vector<std::pair<std::string, std::string>>& wanted) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : wanted) {
    auto it = metrics_.find(name);
    double v = it == metrics_.end() ? 0.0 : it->second.first;
    if (!std::isfinite(v)) v = 0;
    if (it != metrics_.end() && it->second.second != unit) {
      std::cerr << "metric " << name << " measured in " << it->second.second
                << ", declared in " << unit << "\n";
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", v);
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << value
        << ", \"unit\": \"" << unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

double SpanLog::MeanMs(const std::string& name) const {
  const size_t n = Count(name);
  return n == 0 ? 0 : TotalMs(name) / static_cast<double>(n);
}

double SpanLog::TotalMs(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name && s.end_ns >= 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

double SpanLog::TotalValue(const std::string& name) const {
  double total = 0;
  for (const Span& s : spans_) {
    if (name == s.name) total += s.value;
  }
  return total;
}

size_t SpanLog::Count(const std::string& name) const {
  size_t n = 0;
  for (const Span& s : spans_) n += name == s.name ? 1 : 0;
  return n;
}

double MedianSetupSeconds(const std::function<void()>& make) {
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < kSetupMinRepeats ||
         (total < kSetupMinSeconds && seconds.size() < kSetupMaxRepeats)) {
    const int64_t start = NowNanos();
    make();
    seconds.push_back(static_cast<double>(NowNanos() - start) / 1e9);
    total += seconds.back();
  }
  return Median(seconds);
}

bool RunMeasuringChild(const Args& parent, int index, uint64_t seed,
                       double seconds, std::string* out, std::string* error) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len <= 0) {
    *error = "cannot resolve /proc/self/exe";
    return false;
  }
  exe[len] = '\0';
  std::ostringstream seconds_arg;
  seconds_arg.precision(17);
  seconds_arg << seconds;
  std::vector<std::string> args = {exe, "--workload", parent.workload,
                                   "--seed", std::to_string(seed),
                                   "--seconds", seconds_arg.str(), "--trace",
                                   "0", "--measure-only"};
  if (parent.smoke) args.push_back("--smoke");
  if (!parent.cpus.empty()) {
    args.push_back("--cpu");
    args.push_back(std::to_string(
        parent.cpus[static_cast<size_t>(index) % parent.cpus.size()]));
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) {
    *error = "pipe failed";
    return false;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, exe, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  out->clear();
  if (spawned == 0) {
    char buf[65536];
    for (ssize_t got; (got = read(fds[0], buf, sizeof(buf))) != 0;) {
      if (got < 0) {
        if (errno == EINTR) continue;
        break;
      }
      out->append(buf, static_cast<size_t>(got));
    }
  }
  close(fds[0]);
  if (spawned != 0) {
    *error = "posix_spawn failed";
    return false;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    *error = "measuring process exited abnormally";
    return false;
  }
  return true;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

void PinToCpu(int cpu) {
  if (cpu < 0) cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssWithChildrenMib() {
  struct rusage usage {};
  getrusage(RUSAGE_CHILDREN, &usage);
  return std::max(PeakRssMib(), static_cast<double>(usage.ru_maxrss) / 1024.0);
}

void PrintEnvironment(const Args& args) {
  std::cout << "# env hardware_threads=" << HardwareThreads()
            << " build_type=" << MATCNBENCH_BUILD_TYPE << " compiler=\""
            << MATCNBENCH_COMPILER << "\" simd="
            << matcn::simd::LevelName(matcn::simd::ActiveLevel())
            << " workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " smoke=" << args.smoke << "\n";
}

}  // namespace matcnbench
