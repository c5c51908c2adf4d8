#include "common.h"

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

void spin_ns(double ns) {
  if (ns <= 0.0) return;
  const Clock::time_point until =
      Clock::now() + std::chrono::nanoseconds(static_cast<int64_t>(ns));
  while (Clock::now() < until) {
  }
}

std::string Placement::describe() const {
  if (producer_cpu.empty()) return "none";
  std::string s = "producers";
  for (int c : producer_cpu) s += " cpu" + std::to_string(c);
  s += "; dispatchers";
  for (int c : dispatcher_cpu) s += " cpu" + std::to_string(c);
  s += "; main and background mask";
  for (int c : main_mask) s += " " + std::to_string(c);
  return s;
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

Placement make_placement(std::size_t producers, std::size_t dispatchers) {
  Placement p;
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() < producers + dispatchers + 1) return p;
  const auto disp = cpus.begin() + producers;
  const auto rest = disp + dispatchers;
  p.producer_cpu.assign(cpus.begin(), disp);
  p.dispatcher_cpu.assign(disp, rest);
  p.dispatch_mask = p.dispatcher_cpu;
  p.main_mask.assign(rest, cpus.end());
  return p;
}

namespace {
cpu_set_t to_set(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return set;
}
}  // namespace

bool set_thread_mask(const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  const cpu_set_t set = to_set(cpus);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

bool set_task_mask(pid_t tid, const std::vector<int>& cpus) {
  if (cpus.empty()) return false;
  const cpu_set_t set = to_set(cpus);
  return sched_setaffinity(tid, sizeof(set), &set) == 0;
}

std::vector<pid_t> list_tasks() {
  std::vector<pid_t> out;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return out;
  while (dirent* e = readdir(d)) {
    const int tid = std::atoi(e->d_name);
    if (tid > 0) out.push_back(static_cast<pid_t>(tid));
  }
  closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<pid_t> new_tasks(const std::vector<pid_t>& before,
                             const std::vector<pid_t>& after) {
  std::vector<pid_t> out;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(out));
  return out;
}

double thread_cpu_s(pid_t tid) {
  // Linux encodes a per-thread CPU clock of any thread of the calling
  // process as ((~tid) << 3) | CPUCLOCK_PERTHREAD | CPUCLOCK_SCHED — the
  // same id pthread_getcpuclockid() returns for a pthread handle.
  const clockid_t cid = static_cast<clockid_t>((~static_cast<unsigned>(tid)) << 3) | 6;
  timespec ts{};
  if (clock_gettime(cid, &ts) != 0) return -1.0;
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

TaskState task_state(pid_t tid) {
  TaskState st;
  const std::string path = "/proc/self/task/" + std::to_string(tid) + "/status";
  if (FILE* f = std::fopen(path.c_str(), "r")) {
    char line[256];
    char state = 0;
    unsigned long long n = 0;
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "State: %c", &state) == 1) {
        st.asleep = state == 'S' || state == 'D';
      } else if (std::sscanf(line, "voluntary_ctxt_switches: %llu", &n) == 1) {
        st.blocked = n;
        break;
      }
    }
    std::fclose(f);
  }
  return st;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double clock_pair_ns() {
  std::vector<double> rounds;
  for (int r = 0; r < 9; ++r) {
    constexpr int kPairs = 20000;
    double sum = 0.0;
    for (int i = 0; i < kPairs; ++i) {
      const Clock::time_point a = Clock::now();
      const Clock::time_point b = Clock::now();
      sum += std::chrono::duration<double, std::nano>(b - a).count();
    }
    rounds.push_back(sum / kPairs);
  }
  return median(rounds);
}

double SampledTimer::per_call_ns(double clock_ns) const {
  if (samples == 0) return 0.0;
  return std::max(0.0, sampled_ns / static_cast<double>(samples) - clock_ns);
}

double Report::fail_frac() const {
  double f = 0.0;
  if (offered) f += static_cast<double>(failed_packets) / offered;
  if (windows) f += static_cast<double>(windows_breached) / windows;
  if (repeats_differing) f += 1.0;
  return f;
}

std::mt19937_64 rng_for(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream), 0x5fc0u};
  return std::mt19937_64(seq);
}

}  // namespace perfbench
