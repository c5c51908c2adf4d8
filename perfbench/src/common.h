// Shared plumbing of the repository benchmark: options, timing, thread
// placement, per-thread CPU clocks, order statistics and the report every
// workload fills in.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// Busy-waits for `ns` nanoseconds on the steady clock (the self-test's
// injected enqueue cost, the producers' full-ring backoff).
void spin_ns(double ns);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Attribution self-test: busy-wait this long inside the forwarding
  // scheduler's enqueue. Any value >= 0 puts the forwarding scheduler on the
  // untraced path too (so the A/B arms differ only in the busy-wait); < 0
  // (the default) leaves the untraced path on the bare scheduler.
  double inject_enqueue_ns = -1.0;
  // Fairness self-test (rt_overload): shard 0's dispatcher blocks this
  // many milliseconds once every kStallEvery seconds, inside dequeue.
  double inject_stall_ms = 0.0;
};

// CPU placement for one workload: producer threads are pinned to one CPU
// each, dispatchers inherit `dispatch_mask` (every dispatcher CPU) from the
// thread calling start(), which then moves to `main_mask`; once started,
// dispatcher k is narrowed to `dispatcher_cpu[k]` and the engine's
// background threads to `main_mask`. Empty vectors mean "no placement"
// (too few CPUs).
struct Placement {
  std::vector<int> producer_cpu;
  std::vector<int> dispatcher_cpu;
  std::vector<int> dispatch_mask;
  std::vector<int> main_mask;
  std::string describe() const;
};

std::vector<int> allowed_cpus();
// One CPU per producer, one per dispatcher, the rest for the main thread
// and the engine's background threads. No placement when the CPUs do not
// cover that.
Placement make_placement(std::size_t producers, std::size_t dispatchers);
bool set_thread_mask(const std::vector<int>& cpus);  // calling thread
bool set_task_mask(pid_t tid, const std::vector<int>& cpus);

// Thread ids of this process (/proc/self/task), sorted.
std::vector<pid_t> list_tasks();
// Threads present in `after` but not in `before`.
std::vector<pid_t> new_tasks(const std::vector<pid_t>& before,
                             const std::vector<pid_t>& after);
// CPU time consumed so far by thread `tid` of this process, in seconds
// (per-thread CPU clock); -1 when the thread is gone.
double thread_cpu_s(pid_t tid);

// Whether one thread of this process blocked (/proc/self/task/TID/status):
// its voluntary context switches so far, and whether it sleeps now.
// Preemption and time the host steals from its vCPU are neither.
struct TaskState {
  uint64_t blocked = 0;  // voluntary context switches
  bool asleep = false;   // state S or D when read
};
TaskState task_state(pid_t tid);

double peak_rss_mb();

// Order statistics over a copy.
double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);  // linear interpolation

// Steady-clock cost of one now() pair, measured by back-to-back reads; the
// in-place timers subtract it from every sample.
double clock_pair_ns();

// Sampled in-place timer: every `kEvery`-th call is timed. total_ns()
// extrapolates the sampled mean to all calls.
struct SampledTimer {
  static constexpr uint32_t kEvery = 8;
  uint64_t calls = 0;
  uint64_t samples = 0;
  double sampled_ns = 0.0;

  bool due() { return (calls++ % kEvery) == 0; }
  void add(double ns) {
    ++samples;
    sampled_ns += ns;
  }
  // Mean ns per call with the clock-read cost removed (floored at 0).
  double per_call_ns(double clock_ns) const;
  double total_ns(double clock_ns) const {
    return per_call_ns(clock_ns) * static_cast<double>(calls);
  }
};

// A named figure with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run produced. `attempted`/`failed` carry fail_frac's
// parts: offered packets, checked fairness windows and (sim) repetitions
// compared, against the ones that failed.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;  // one line per failed check
  std::vector<std::string> notes;     // printed before the result
  uint64_t offered = 0;
  uint64_t failed_packets = 0;
  uint64_t windows = 0;
  uint64_t windows_breached = 0;
  uint64_t repeats_compared = 0;
  uint64_t repeats_differing = 0;

  void e2e(const std::string& n, double v, const std::string& u) {
    end_to_end.push_back({n, v, u});
  }
  void layer(const std::string& n, double v, const std::string& u) {
    per_layer.push_back({n, v, u});
  }
  void fail(const std::string& what) { failures.push_back(what); }
  double fail_frac() const;
};

// Deterministic per-purpose random stream derived from the workload seed.
std::mt19937_64 rng_for(uint64_t seed, uint64_t stream);

}  // namespace perfbench
